//! Columnar (structure-of-arrays) inference: flat quantized datasets
//! and branch-free neuron-column kernels.
//!
//! The GA fitness loop scores every genome against the full training
//! split. The row-major path ([`AxMlp::predict_with`]) walks one sample
//! at a time through `Vec<Vec<u8>>` rows, paying a mask branch, a sign
//! branch and a pointer chase per weight. This module flips the loop
//! nest to neuron-major over a column-major dataset:
//!
//! * [`QuantMatrix`] stores a quantized dataset as **one contiguous
//!   `Vec<u8>` plus a stride** — the end-to-end container used by
//!   `pe-datasets`' `QuantizedData` and every accuracy API.
//! * [`ColumnMatrix`] is its transpose: each *feature* column is
//!   contiguous, so a neuron's accumulation streams samples linearly.
//! * [`accumulate_neuron_column`] sums one neuron's Eq. (4) terms over
//!   the whole dataset, one branch-free pass per weight over its input
//!   column: each weight's term `s · ((x ⊙ m) ≪ k)` is evaluated
//!   analytically (AND, widening shift, add; sign hoisted out of the
//!   loop), at `i32` lane width whenever the accumulator provably fits
//!   ([`fits_i32`]).
//! * [`ColumnLabels`] holds the class labels the forward pass counts
//!   hits against, with their `i16` lanes built once.
//! * [`qrelu_column`] applies the saturation of Eq. (4) to a whole
//!   accumulator column at once via the precomputed
//!   [`QReluKernel`](crate::quant::QReluKernel).
//!
//! [`hits_columns`] drives a whole [`AxMlp`] this way, against a
//! reused [`ColumnarScratch`] that keeps every hidden layer's
//! post-QReLU columns; it is the GA fitness's forward pass, serves
//! [`accuracy_columns`] and, through its [`Perturb`] hook, runs every
//! Monte-Carlo variation trial (`printed-axc`'s robust fitness and
//! `mc_accuracy`). [`ResidentPass`] runs the same layer code for
//! coordinate descent (doped-seed refinement and memetic polish): after
//! one full pass, a trial on one neuron recomputes that neuron's column
//! and the hidden layers after it, then reruns the argmax layer. Both
//! are **bit-exact** with the row-major path — same integer
//! accumulators, same QReLU saturation, same argmax-ties-to-lowest —
//! which the test-suite proves exhaustively and by property tests; the
//! per-row API stays available as the reference oracle.
//!
//! # Kernels
//!
//! Every full pass and every trial runs each layer on the narrowest
//! accumulator lanes that hold it, a ladder chosen from the network
//! alone (for a trial, the edited network):
//!
//! 1. **`i16`, the pair kernels**, when every neuron's accumulator range
//!    `[bias − Σneg, bias + Σpos]`, each term `(mask & 0xFF) ≪ shift`,
//!    lies inside `i16` and every live weight shifts by at most 6
//!    ([`layer_fits_i16`]): 16 samples per AVX2 step and two weights per
//!    `vpmaddubsw`, over inputs byte-interleaved in pairs (the dataset's
//!    kept by [`ColumnMatrix`], a hidden layer's interleaved once per
//!    pass). Hidden layers run two neurons per stripe pass,
//!    QReLU-packed straight to `u8`; the argmax layer accumulates each
//!    output in a register and keeps the running best, index and hit
//!    count in registers against the `i16` label lanes, storing no
//!    output column. Every hidden neuron the paper's genomes encode fits
//!    (the widest, Cardio's 21 inputs at full masks and `k = 6`, spans
//!    22,208 around its bias; 8-bit weights give `k ≤ 6`); so do most
//!    output layers.
//! 2. **`i32`, the pair kernels' argmax**, for an argmax layer that
//!    would take the `i16` rung but for ranges that leave `i16` and stay
//!    inside `i32`: the same pass, each pair sum sign-extended into two
//!    vectors of 8 `i32` rows. Every GA genome's output layer at 8-bit
//!    weights that leaves `i16` lands here.
//! 3. **The portable loops** for every other layer: the analytic `i32`
//!    loop ([`accumulate_neuron_column_narrow_scalar`], left to the
//!    auto-vectorizer) when the worst-case `|accumulator|` fits `i32`
//!    ([`fits_i32`]), per hidden neuron, and for an argmax layer whose
//!    every neuron fits; else the `i64` loop. They serve hidden layers
//!    off `i16`, layers with a shift above 6, hand-built extremes, and
//!    every layer when a `perturb` hook adjusts the accumulators (at
//!    `i64`).
//!
//! The pair kernels need AVX2 on x86_64 and the `simd` cargo feature
//! ([`simd::i16_lanes`](crate::simd::i16_lanes)); elsewhere the portable
//! loops run every layer. [`kernel_mode`] reports which. Each path's
//! sums are exact for every value its range admits, so the paths agree
//! bit for bit with each other and with the row oracle, which the
//! `kernel_parity` suite pins down; the portable loops stay public as
//! the parity reference.

use serde::{Deserialize, Serialize};

use crate::axmlp::{AxLayer, AxMlp, AxNeuron};
use crate::quant::QReluCfg;
use crate::simd::{argmax_hits_pairs, interleave_pairs, PairInputs, PairScratch, PairWidth};

/// A quantized dataset as one flat row-major buffer plus a stride.
///
/// `row(i)` is `data[i * width .. (i + 1) * width]` — the same bytes a
/// `Vec<Vec<u8>>` would hold, without the per-row allocation and
/// pointer chase. [`ColumnMatrix`] (via [`QuantMatrix::columns`]) is
/// the transposed view the columnar kernels consume.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QuantMatrix {
    data: Vec<u8>,
    width: usize,
    rows: usize,
}

impl QuantMatrix {
    /// Build from a flat row-major buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != width * rows`.
    #[must_use]
    pub fn from_flat(data: Vec<u8>, width: usize, rows: usize) -> Self {
        assert_eq!(data.len(), width * rows, "flat buffer size mismatch");
        Self { data, width, rows }
    }

    /// Build from per-sample rows (all rows must share one length).
    ///
    /// # Panics
    ///
    /// Panics if rows are ragged.
    #[must_use]
    pub fn from_rows<R: AsRef<[u8]>>(rows: &[R]) -> Self {
        let width = rows.first().map_or(0, |r| r.as_ref().len());
        let mut data = Vec::with_capacity(width * rows.len());
        for row in rows {
            assert_eq!(row.as_ref().len(), width, "ragged row");
            data.extend_from_slice(row.as_ref());
        }
        Self {
            data,
            width,
            rows: rows.len(),
        }
    }

    /// Number of samples (rows).
    #[must_use]
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the matrix holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Features per sample (the stride).
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// One sample's features.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    #[must_use]
    pub fn row(&self, i: usize) -> &[u8] {
        assert!(i < self.rows, "row {i} out of {}", self.rows);
        &self.data[i * self.width..(i + 1) * self.width]
    }

    /// Iterate the sample rows in order.
    pub fn iter(&self) -> Rows<'_> {
        Rows {
            matrix: self,
            index: 0,
        }
    }

    /// The underlying flat row-major buffer.
    #[must_use]
    pub fn as_flat(&self) -> &[u8] {
        &self.data
    }

    /// An owned copy of the first `n` rows (deterministic subsampling —
    /// splits are already shuffled).
    ///
    /// # Panics
    ///
    /// Panics if `n > len()`.
    #[must_use]
    pub fn head(&self, n: usize) -> Self {
        assert!(n <= self.rows, "head {n} out of {}", self.rows);
        Self {
            data: self.data[..n * self.width].to_vec(),
            width: self.width,
            rows: n,
        }
    }

    /// An owned copy of the selected rows (in the given order).
    ///
    /// # Panics
    ///
    /// Panics if an index is out of bounds.
    #[must_use]
    pub fn select(&self, indices: &[usize]) -> Self {
        let mut data = Vec::with_capacity(indices.len() * self.width);
        for &i in indices {
            data.extend_from_slice(self.row(i));
        }
        Self {
            data,
            width: self.width,
            rows: indices.len(),
        }
    }

    /// Transpose into the column-major layout the kernels consume,
    /// with the feature pairs of the pair kernels interleaved once.
    #[must_use]
    pub fn columns(&self) -> ColumnMatrix {
        let cols: Vec<Vec<u8>> = (0..self.width)
            .map(|f| self.iter().map(|row| row[f]).collect())
            .collect();
        let mut pairs = Vec::new();
        interleave_pairs(&cols, self.rows, &mut pairs);
        ColumnMatrix {
            cols,
            pairs,
            samples: self.rows,
        }
    }
}

impl std::ops::Index<usize> for QuantMatrix {
    type Output = [u8];

    fn index(&self, i: usize) -> &[u8] {
        self.row(i)
    }
}

impl<'a> IntoIterator for &'a QuantMatrix {
    type Item = &'a [u8];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Iterator over a [`QuantMatrix`]'s sample rows, in order.
#[derive(Debug, Clone)]
pub struct Rows<'a> {
    matrix: &'a QuantMatrix,
    index: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u8];

    fn next(&mut self) -> Option<&'a [u8]> {
        if self.index >= self.matrix.rows {
            return None;
        }
        let row = self.matrix.row(self.index);
        self.index += 1;
        Some(row)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.matrix.rows - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Rows<'_> {}

/// The transpose of a [`QuantMatrix`]: each feature's values over all
/// samples are one contiguous column (`col(f)`), which is what makes
/// the neuron-major kernels stream linearly. The columns are the same
/// `Vec<u8>`s hidden activations travel in, so a forward pass hands
/// [`cols`](Self::cols) to the kernels as they are.
///
/// It also keeps the features byte-interleaved in pairs, the input the
/// pair kernels' first layer loads whole: each 32-byte vector holds one
/// 16-row stripe of features `2p` and `2p + 1`, in turn, the last
/// stripe zero-padded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnMatrix {
    cols: Vec<Vec<u8>>,
    pairs: Vec<u8>,
    samples: usize,
}

impl ColumnMatrix {
    /// Number of samples (each column's length).
    #[must_use]
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Number of feature columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// One feature's values over all samples.
    ///
    /// # Panics
    ///
    /// Panics if `f >= width()`.
    #[inline]
    #[must_use]
    pub fn col(&self, f: usize) -> &[u8] {
        &self.cols[f]
    }

    /// All columns, in feature order.
    #[must_use]
    pub fn cols(&self) -> &[Vec<u8>] {
        &self.cols
    }

    /// The features' stripes, byte-interleaved in pairs.
    pub(crate) fn pairs(&self) -> &[u8] {
        &self.pairs
    }
}

/// The class labels [`hits_columns`] counts hits against: each row's
/// class, and the same classes as `i16` lanes for the `i16` argmax,
/// built once with the labels. A class no `i16` lane holds becomes −1,
/// which no output index equals, so it never hits, as on every rung.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnLabels {
    classes: Vec<usize>,
    lanes: Vec<i16>,
}

impl ColumnLabels {
    /// Wrap one class label per row.
    #[must_use]
    pub fn new(classes: Vec<usize>) -> Self {
        let lanes = classes
            .iter()
            .map(|&c| i16::try_from(c).unwrap_or(-1))
            .collect();
        Self { classes, lanes }
    }

    /// Number of rows.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether there are no rows.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The labels, one class per row.
    #[must_use]
    pub fn classes(&self) -> &[usize] {
        &self.classes
    }
}

/// Accumulate one neuron's Eq. (4) sum over a whole dataset at once:
/// `acc[s] = bias + Σ_i s_i · ((x_i[s] ⊙ m_i) ≪ k_i)`, one branch-free
/// pass per weight over its contiguous input column.
///
/// Bit-exact with running [`AxNeuron::accumulate`] on every sample.
///
/// Input columns are anything slice-like (`&[u8]`, `Vec<u8>`,
/// `Arc<[u8]>`), so callers can pass their column storage directly
/// without building a `Vec<&[u8]>` per layer. `narrow` is the `i32`
/// scratch column of the narrow path.
///
/// # Panics
///
/// Panics if `inputs` and the weights disagree in count, or a column's
/// length differs from `samples`.
pub fn accumulate_neuron_column<C: AsRef<[u8]>>(
    neuron: &AxNeuron,
    inputs: &[C],
    samples: usize,
    acc: &mut Vec<i64>,
    narrow: &mut Vec<i32>,
) {
    // When the worst-case |accumulator| provably fits `i32`
    // ([`fits_i32`]), run the whole accumulation at half the lane
    // width (twice the SIMD throughput) and widen once at the end —
    // bit-exact, because integer addition without overflow is
    // width-agnostic. Every genome-encodable neuron fits by orders of
    // magnitude; the scalar `i64` loop covers hand-built extremes.
    if fits_i32(neuron) {
        accumulate_neuron_column_narrow_scalar(neuron, inputs, samples, narrow);
        acc.clear();
        acc.extend(narrow.iter().map(|&a| i64::from(a)));
        return;
    }
    assert_eq!(
        inputs.len(),
        neuron.weights.len(),
        "input column count mismatch"
    );
    for col in inputs {
        assert_eq!(col.as_ref().len(), samples, "column length mismatch");
    }
    acc.clear();
    acc.resize(samples, i64::from(neuron.bias));
    for (w, col) in neuron.weights.iter().zip(inputs) {
        if w.mask == 0 {
            continue;
        }
        let col = col.as_ref();
        let mask = (w.mask & 0xFF) as u8;
        let shift = w.shift;
        if w.negative {
            for (a, &x) in acc.iter_mut().zip(col) {
                *a -= i64::from(x & mask) << shift;
            }
        } else {
            for (a, &x) in acc.iter_mut().zip(col) {
                *a += i64::from(x & mask) << shift;
            }
        }
    }
}

/// Whether `neuron`'s accumulator provably fits an `i32` for every
/// possible `u8` activation stream (the precondition of the portable
/// `i32` loop). True for every genome-encodable neuron by orders of
/// magnitude.
#[must_use]
pub fn fits_i32(neuron: &AxNeuron) -> bool {
    let small_shifts = neuron.weights.iter().all(|w| w.mask == 0 || w.shift <= 22);
    small_shifts && {
        let bound: i64 = neuron
            .weights
            .iter()
            .filter(|w| w.mask != 0)
            .map(|w| i64::from(w.mask & 0xFF) << w.shift)
            .sum::<i64>()
            + i64::from(neuron.bias).abs();
        bound <= i64::from(i32::MAX)
    }
}

/// Whether every value `neuron`'s accumulator can take lies inside
/// `i16`: the range `[bias − Σneg, bias + Σpos]`, each term the largest
/// `(mask & 0xFF) ≪ shift` a `u8` activation can make. The precondition
/// of the `i16` rung ([`layer_fits_i16`]); a neuron at full 4-bit masks
/// and `k = 6` fits up to 32 inputs with a 12-bit bias.
#[must_use]
pub fn fits_i16(neuron: &AxNeuron) -> bool {
    let bias = i64::from(neuron.bias);
    let (mut lo, mut hi) = (bias, bias);
    for w in &neuron.weights {
        let mask = i64::from(w.mask & 0xFF);
        if mask == 0 {
            continue;
        }
        if w.shift > 15 {
            return false;
        }
        let term = mask << w.shift;
        if w.negative {
            lo -= term;
        } else {
            hi += term;
        }
    }
    lo >= i64::from(i16::MIN) && hi <= i64::from(i16::MAX)
}

/// Whether [`hits_columns`] runs `layer` on `i16` lanes, wherever the
/// pair kernels run ([`simd::i16_lanes`](crate::simd::i16_lanes)): every
/// neuron [`fits_i16`], every weight with a live mask byte shifts by at
/// most 6 (the kernels multiply by `±2^k` as an `i8`), a hidden layer's
/// QReLU packs to `u8` (`out_bits <= 8`, `shift < 32`), and an argmax
/// layer's class indices fit `i16` lanes. Every genome at the paper's
/// 8-bit weights meets the shift bound (`k ≤ 6`).
#[must_use]
pub fn layer_fits_i16(layer: &AxLayer) -> bool {
    pair_width(layer) == Some(PairWidth::I16)
}

/// The lanes the pair kernels sum `layer` on, where they run: `i16`
/// when it [`layer_fits_i16`]; `i32` for an argmax layer that would but
/// for a range that leaves `i16` and stays inside `i32`; `None` (the
/// portable loops) otherwise. One pass over each neuron's weights.
fn pair_width(layer: &AxLayer) -> Option<PairWidth> {
    let lanes_hold = match layer.qrelu {
        Some(q) => crate::simd::packs_to_u8(q),
        None => layer.neurons.len() <= 1 << 15,
    };
    let mut width = lanes_hold.then_some(PairWidth::I16)?;
    for neuron in &layer.neurons {
        width = width.max(neuron_pair_width(neuron)?);
    }
    (layer.qrelu.is_none() || width == PairWidth::I16).then_some(width)
}

/// The narrowest lanes, `i16` or `i32`, that hold every value `neuron`'s
/// accumulator can take, when every weight with a live mask byte shifts
/// by at most 6; else `None`.
fn neuron_pair_width(neuron: &AxNeuron) -> Option<PairWidth> {
    let bias = i64::from(neuron.bias);
    let (mut lo, mut hi, mut widest) = (bias, bias, 0);
    for w in &neuron.weights {
        let mask = i64::from(w.mask & 0xFF);
        let shift = if mask == 0 { 0 } else { w.shift };
        widest = widest.max(shift);
        // Past the widest shift the check below fails anyway.
        let term = mask << shift.min(crate::simd::MAX_PAIR_SHIFT + 1);
        let negative = i64::from(w.negative);
        lo -= term * negative;
        hi += term * (1 - negative);
    }
    let inside = |min: i64, max: i64| min <= lo && hi <= max;
    if widest > crate::simd::MAX_PAIR_SHIFT {
        None
    } else if inside(i16::MIN.into(), i16::MAX.into()) {
        Some(PairWidth::I16)
    } else {
        inside(i32::MIN.into(), i32::MAX.into()).then_some(PairWidth::I32)
    }
}

/// The narrow (`i32`) accumulation of [`accumulate_neuron_column`], for
/// neurons where [`fits_i32`] holds: the analytic AND/shift/add loop
/// left to the auto-vectorizer. Downstream consumers that only compare
/// or saturate the accumulators (argmax, QReLU) can then stay at the
/// narrow width end to end; bit-exact with the `i64` path, since
/// integer addition without overflow is width-agnostic.
///
/// # Panics
///
/// Panics if `inputs` and the weights disagree in count, a column's
/// length differs from `samples`, or `fits_i32` is violated (debug).
pub fn accumulate_neuron_column_narrow_scalar<C: AsRef<[u8]>>(
    neuron: &AxNeuron,
    inputs: &[C],
    samples: usize,
    acc: &mut Vec<i32>,
) {
    debug_assert!(fits_i32(neuron), "narrow accumulation would overflow");
    assert_eq!(
        inputs.len(),
        neuron.weights.len(),
        "input column count mismatch"
    );
    // The first active weight *writes* `bias ± term` instead of adding
    // onto a pre-filled buffer, saving one full store pass per neuron.
    let bias = neuron.bias;
    acc.clear();
    for (w, col) in neuron.weights.iter().zip(inputs) {
        if w.mask == 0 {
            continue;
        }
        let col = col.as_ref();
        assert_eq!(col.len(), samples, "column length mismatch");
        let mask = (w.mask & 0xFF) as u8;
        let shift = w.shift;
        match (acc.is_empty(), w.negative) {
            (true, true) => acc.extend(col.iter().map(|&x| bias - (i32::from(x & mask) << shift))),
            (true, false) => {
                acc.extend(col.iter().map(|&x| bias + (i32::from(x & mask) << shift)));
            }
            (false, true) => {
                for (a, &x) in acc.iter_mut().zip(col) {
                    *a -= i32::from(x & mask) << shift;
                }
            }
            (false, false) => {
                for (a, &x) in acc.iter_mut().zip(col) {
                    *a += i32::from(x & mask) << shift;
                }
            }
        }
    }
    if acc.is_empty() {
        acc.resize(samples, bias);
    }
}

/// Which kernels a forward pass runs on this host ([`kernel_mode`]).
/// The two are bit-exact with each other (proven by the
/// `kernel_parity` suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// The portable loops alone: the analytic AND/shift/add loop, left
    /// to the auto-vectorizer
    /// ([`accumulate_neuron_column_narrow_scalar`]), and the `i64` loop.
    Scalar,
    /// The explicit `std::arch` x86_64 AVX2 pair kernels
    /// ([`crate::simd`]) for every layer whose sums fit their lanes, the
    /// portable loops for the rest.
    Simd,
}

impl KernelKind {
    /// Stable lowercase name (`scalar` / `simd`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Simd => "simd",
        }
    }
}

/// The kernels a forward pass runs on this host: [`KernelKind::Simd`]
/// exactly when the pair kernels run
/// ([`simd::i16_lanes`](crate::simd::i16_lanes): the `simd` feature
/// built on x86_64 and AVX2 detected), [`KernelKind::Scalar`] everywhere
/// else. A report, not a switch — artifacts never depend on it.
#[must_use]
pub fn kernel_mode() -> KernelKind {
    if crate::simd::i16_lanes() {
        KernelKind::Simd
    } else {
        KernelKind::Scalar
    }
}

/// Apply a QReLU to a whole accumulator column (into a reused buffer).
pub fn qrelu_column(q: QReluCfg, acc: &[i64], out: &mut Vec<u8>) {
    let kernel = q.kernel();
    out.clear();
    out.extend(acc.iter().map(|&a| kernel.apply(a)));
}

/// [`qrelu_column`] straight off a narrow (`i32`) accumulator column.
/// Bit-exact with widening first: `clamp(a >> s, 0, max)` commutes
/// with the sign extension because `>>` is arithmetic at both widths.
fn qrelu_column_narrow(q: QReluCfg, acc: &[i32], out: &mut Vec<u8>) {
    let kernel = q.kernel();
    out.clear();
    out.extend(acc.iter().map(|&a| kernel.apply(i64::from(a))));
}

/// One hidden column end to end: accumulate, then QReLU into `out`.
/// With `rung16` (the neuron's layer runs on `i16` lanes) the pair
/// kernel runs this one neuron and packs its column straight from
/// `i16` lanes; otherwise the portable loop stays at `i32` width
/// whenever the narrow precondition holds, skipping the widening pass
/// the `i64` path runs.
fn hidden_column(
    neuron: &AxNeuron,
    inputs: Inputs<'_>,
    samples: usize,
    q: QReluCfg,
    rung16: bool,
    bufs: &mut Buffers,
    out: &mut Vec<u8>,
) {
    if rung16 {
        let pairs = inputs.pairs(samples, &mut bufs.interleaved);
        let (group, outs) = (std::slice::from_ref(neuron), std::slice::from_mut(out));
        crate::simd::hidden_columns_i16(group, pairs, samples, q, &mut bufs.pairs, outs);
        return;
    }
    let inputs = inputs.cols;
    if fits_i32(neuron) {
        accumulate_neuron_column_narrow_scalar(neuron, inputs, samples, &mut bufs.narrow);
        qrelu_column_narrow(q, &bufs.narrow, out);
    } else {
        accumulate_neuron_column(neuron, inputs, samples, &mut bufs.acc, &mut bufs.narrow);
        qrelu_column(q, &bufs.acc, out);
    }
}

/// Column-major argmax with ties to the lowest index — the hardware
/// comparator's behavior, applied per sample across neuron columns:
/// the tests' reference for the forward pass's fused argmax.
///
/// # Panics
///
/// Panics if `columns` is empty or lengths disagree with `samples`.
#[cfg(test)]
pub(crate) fn argmax_columns<T: Copy + PartialOrd, C: AsRef<[T]>>(
    columns: &[C],
    samples: usize,
) -> Vec<usize> {
    assert!(!columns.is_empty(), "argmax over zero neurons");
    for col in columns {
        assert_eq!(col.as_ref().len(), samples, "column length mismatch");
    }
    // Neuron-major sweep with a running best *value* per sample: each
    // pass is a linear walk over two contiguous arrays (no indexed
    // loads through the winner's column), and strictly-greater keeps
    // ties at the lowest index.
    let mut best = vec![0usize; samples];
    let mut best_value: Vec<T> = columns[0].as_ref().to_vec();
    for (j, col) in columns.iter().enumerate().skip(1) {
        for ((b, v), &x) in best.iter_mut().zip(best_value.iter_mut()).zip(col.as_ref()) {
            if x > *v {
                *b = j;
                *v = x;
            }
        }
    }
    best
}

/// Rows whose argmax over neuron-major columns matches their label.
/// The argmax breaks ties to the lowest index, like the hardware
/// comparator and the row oracle; an empty column set predicts class 0
/// for every row, as the row oracle does.
///
/// Each pass walks the columns once, keeping a running best value and
/// index per sample in `best_value` / `best_index` (reused buffers).
///
/// # Panics
///
/// Panics if a column's length differs from `labels.len()`.
pub(crate) fn argmax_hits<T: Copy + PartialOrd>(
    columns: &[Vec<T>],
    labels: &[usize],
    best_index: &mut Vec<u32>,
    best_value: &mut Vec<T>,
) -> usize {
    let Some(first) = columns.first() else {
        return labels.iter().filter(|&&l| l == 0).count();
    };
    assert_eq!(first.len(), labels.len(), "column length mismatch");
    best_value.clear();
    best_value.extend_from_slice(first);
    best_index.clear();
    best_index.resize(labels.len(), 0);
    for (j, col) in columns.iter().enumerate().skip(1) {
        let j = j as u32;
        assert_eq!(col.len(), labels.len(), "column length mismatch");
        for ((b, v), &x) in best_index.iter_mut().zip(best_value.iter_mut()).zip(col) {
            if x > *v {
                *b = j;
                *v = x;
            }
        }
    }
    best_index
        .iter()
        .zip(labels)
        .filter(|&(&b, &l)| b as usize == l)
        .count()
}

/// Reusable buffers for [`hits_columns`]: every hidden layer's
/// post-QReLU columns, accumulator scratch, the output layer's columns
/// and the running argmax. Buffers grow to the widest layer once;
/// steady-state inference allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct ColumnarScratch {
    /// `acts[l]` holds hidden layer `l`'s columns, kept after a pass.
    acts: Vec<Vec<Vec<u8>>>,
    bufs: Buffers,
}

impl ColumnarScratch {
    /// A fresh (empty) scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// The working buffers one layer's kernels reuse; nothing in them
/// outlives the layer.
#[derive(Debug, Clone, Default)]
struct Buffers {
    acc: Vec<i64>,
    narrow: Vec<i32>,
    pairs: PairScratch,
    interleaved: Vec<u8>,
    out_wide: Vec<Vec<i64>>,
    out_narrow: Vec<Vec<i32>>,
    best_index: Vec<u32>,
    best_wide: Vec<i64>,
    best_narrow: Vec<i32>,
    best_act: Vec<u8>,
}

/// A per-neuron accumulator adjustment for [`hits_columns`]: called
/// with the layer index, the neuron's index within its layer and the
/// neuron's whole accumulator column, before the QReLU or the argmax
/// sees it.
pub type Perturb<'a> = &'a dyn Fn(usize, usize, &mut [i64]);

/// Rows of a column-major dataset that `mlp` classifies as `labels`
/// says: the columnar forward pass, allocation-free once `scratch` has
/// grown.
///
/// Every hidden layer's columns are computed into `scratch` and stay
/// there. Each layer runs on the narrowest rung of the ladder in the
/// [module docs](self#kernels): where the pair kernels run, `i16` lanes
/// for a layer that [`layer_fits_i16`] and `i32` lanes for an argmax
/// layer that would but for its ranges; then the portable loops, `i32`
/// for every neuron (hidden) or every output (argmax) that
/// [`fits_i32`], then `i64`. A network whose last layer has a QReLU argmaxes its final
/// activations, and a network with no layers argmaxes its inputs.
/// Layers after the first one without a QReLU (the argmax layer) never
/// reach a prediction and are not run. Bit-exact with
/// [`AxMlp::predict_with`] per row: same integer accumulators, same
/// QReLU saturation, argmax ties to the lowest class. Empty data scores
/// 0 hits.
///
/// With `perturb`, every neuron accumulates at `i64` width and
/// `perturb` adjusts its column before the activation or the argmax
/// (a Monte-Carlo device model's per-device gain and offset).
///
/// # Panics
///
/// Panics if a layer's fan-in disagrees with its input width, or a
/// column's length differs from `labels.len()`.
pub fn hits_columns(
    mlp: &AxMlp,
    cols: &ColumnMatrix,
    labels: &ColumnLabels,
    scratch: &mut ColumnarScratch,
    perturb: Option<Perturb<'_>>,
) -> usize {
    let samples = labels.len();
    assert_eq!(cols.samples(), samples, "label count mismatch");
    if samples == 0 {
        return 0;
    }
    let hidden = hidden_layers(mlp);
    let ColumnarScratch { acts, bufs } = scratch;
    let acts = grown(acts, hidden);
    for li in 0..hidden {
        let (done, rest) = acts.split_at_mut(li);
        let inputs = layer_inputs(mlp, cols, done, li);
        hidden_layer(mlp, li, inputs, samples, bufs, perturb, &mut rest[0]);
    }
    let inputs = layer_inputs(mlp, cols, acts, hidden);
    argmax_layer(mlp, hidden, inputs, labels, bufs, perturb)
}

/// The leading QReLU layers of `mlp`, whose columns a pass keeps. The
/// layer after them, if any, is the argmax layer.
fn hidden_layers(mlp: &AxMlp) -> usize {
    mlp.layers.iter().take_while(|l| l.qrelu.is_some()).count()
}

/// The columns that feed a layer, and the dataset's feature pairs when
/// they are the dataset's.
#[derive(Debug, Clone, Copy)]
struct Inputs<'a> {
    cols: &'a [Vec<u8>],
    pairs: Option<&'a [u8]>,
}

impl<'a> Inputs<'a> {
    /// The inputs interleaved in pairs for the `i16` kernels: the
    /// dataset's pairs, or the columns interleaved into `buf` once.
    fn pairs(self, samples: usize, buf: &'a mut Vec<u8>) -> PairInputs<'a> {
        let pairs = match self.pairs {
            Some(pairs) => pairs,
            None => {
                interleave_pairs(self.cols, samples, buf);
                buf
            }
        };
        PairInputs {
            count: self.cols.len(),
            pairs,
        }
    }
}

/// The columns that feed layer `li`: the dataset's, with its feature
/// pairs, for layer 0, else hidden layer `li − 1`'s.
fn layer_inputs<'a>(
    mlp: &AxMlp,
    cols: &'a ColumnMatrix,
    acts: &'a [Vec<Vec<u8>>],
    li: usize,
) -> Inputs<'a> {
    match li.checked_sub(1) {
        None => Inputs {
            cols: cols.cols(),
            pairs: Some(cols.pairs()),
        },
        Some(prev) => Inputs {
            cols: &acts[prev][..mlp.layers[prev].neurons.len()],
            pairs: None,
        },
    }
}

/// The lanes the pair kernels sum `layer` on, on this host; `None`
/// where the portable loops run it.
fn pair_rung(layer: &AxLayer) -> Option<PairWidth> {
    crate::simd::i16_lanes()
        .then(|| pair_width(layer))
        .flatten()
}

/// Every post-QReLU column of `mlp`'s hidden layer `li` over `inputs`,
/// into `out`: on the layer's rung, or at `i64` width through
/// `perturb`.
fn hidden_layer(
    mlp: &AxMlp,
    li: usize,
    inputs: Inputs<'_>,
    samples: usize,
    bufs: &mut Buffers,
    perturb: Option<Perturb<'_>>,
    out: &mut Vec<Vec<u8>>,
) {
    let layer = &mlp.layers[li];
    let q = layer.qrelu.expect("a hidden layer has a QReLU");
    let outs = grown(out, layer.neurons.len());
    if perturb.is_none() && pair_rung(layer) == Some(PairWidth::I16) {
        let pairs = inputs.pairs(samples, &mut bufs.interleaved);
        // Two neurons per pass share each input load.
        for (group, outs) in layer.neurons.chunks(2).zip(outs.chunks_mut(2)) {
            crate::simd::hidden_columns_i16(group, pairs, samples, q, &mut bufs.pairs, outs);
        }
        return;
    }
    for (ni, (neuron, out)) in layer.neurons.iter().zip(outs).enumerate() {
        if let Some(perturb) = perturb {
            let inputs = inputs.cols;
            accumulate_neuron_column(neuron, inputs, samples, &mut bufs.acc, &mut bufs.narrow);
            perturb(li, ni, &mut bufs.acc);
            qrelu_column(q, &bufs.acc, out);
        } else {
            hidden_column(neuron, inputs, samples, q, false, bufs, out);
        }
    }
}

/// Rows whose prediction matches `labels`, given the columns that feed
/// `mlp`'s argmax (`inputs`, the output of its `hidden` leading QReLU
/// layers): through the argmax layer, layer `hidden`, on that layer's
/// rung, or over `inputs` themselves when every layer has a QReLU. The
/// pair kernels store no output column; the portable loops' are
/// scratch, and none outlives the call.
fn argmax_layer(
    mlp: &AxMlp,
    hidden: usize,
    inputs: Inputs<'_>,
    labels: &ColumnLabels,
    bufs: &mut Buffers,
    perturb: Option<Perturb<'_>>,
) -> usize {
    let (samples, classes) = (labels.len(), labels.classes());
    let Some(layer) = mlp.layers.get(hidden) else {
        return argmax_hits(
            inputs.cols,
            classes,
            &mut bufs.best_index,
            &mut bufs.best_act,
        );
    };
    if let Some(width) = pair_rung(layer).filter(|_| perturb.is_none()) {
        let (pairs, lanes) = (inputs.pairs(samples, &mut bufs.interleaved), &labels.lanes);
        return argmax_hits_pairs(&layer.neurons, pairs, lanes, width, &mut bufs.pairs);
    }
    let (count, inputs) = (layer.neurons.len(), inputs.cols);
    if perturb.is_none() && layer.neurons.iter().all(fits_i32) {
        let outs = grown(&mut bufs.out_narrow, count);
        for (neuron, out) in layer.neurons.iter().zip(outs.iter_mut()) {
            accumulate_neuron_column_narrow_scalar(neuron, inputs, samples, out);
        }
        return argmax_hits(outs, classes, &mut bufs.best_index, &mut bufs.best_narrow);
    }
    let outs = grown(&mut bufs.out_wide, count);
    for (ni, (neuron, out)) in layer.neurons.iter().zip(outs.iter_mut()).enumerate() {
        accumulate_neuron_column(neuron, inputs, samples, out, &mut bufs.narrow);
        if let Some(perturb) = perturb {
            perturb(hidden, ni, out);
        }
    }
    argmax_hits(outs, classes, &mut bufs.best_index, &mut bufs.best_wide)
}

/// The first `count` column buffers of `columns`, growing it (never
/// shrinking, so no buffer is freed) as needed.
fn grown<T>(columns: &mut Vec<Vec<T>>, count: usize) -> &mut [Vec<T>] {
    if columns.len() < count {
        columns.resize_with(count, Vec::new);
    }
    &mut columns[..count]
}

/// Accuracy of `mlp` over a column-major dataset ([`hits_columns`]
/// over the row count, with a fresh scratch). Empty datasets score
/// `0.0`, the workspace-wide convention of every accuracy API.
///
/// # Panics
///
/// Panics if `labels` disagrees with the sample count.
#[must_use]
pub fn accuracy_columns(mlp: &AxMlp, cols: &ColumnMatrix, labels: &[usize]) -> f64 {
    let classes = ColumnLabels::new(labels.to_vec());
    let hits = hits_columns(mlp, cols, &classes, &mut ColumnarScratch::new(), None);
    if labels.is_empty() {
        0.0
    } else {
        hits as f64 / labels.len() as f64
    }
}

/// One network's forward pass over fixed rows, kept for coordinate
/// descent. [`run`](Self::run) is [`hits_columns`], whose scratch keeps
/// every hidden layer's columns. A [`trial`](Self::trial) after one
/// neuron changed recomputes that neuron's column and the hidden layers
/// after it, swaps them in and reruns the argmax layer, each on the rung
/// of the edited network, so it counts the hits [`hits_columns`] gives
/// the edited network. [`undo`](Self::undo) swaps the replaced columns
/// back; accepting a trial is free. No output column stays resident, so
/// a trial on the argmax layer recomputes only that layer. Once the
/// spare columns have grown, trials and undos allocate nothing.
#[derive(Debug)]
pub struct ResidentPass {
    cols: ColumnMatrix,
    labels: ColumnLabels,
    scratch: ColumnarScratch,
    /// The columns the last trial swapped out: the touched neuron's,
    /// and whole later hidden layers (indexed like the scratch's).
    spare_col: Vec<u8>,
    spare_acts: Vec<Vec<Vec<u8>>>,
    /// `(li, ni, hidden)` of the last trial on a hidden neuron, until
    /// [`undo`](Self::undo) swaps its columns back.
    swapped: Option<(usize, usize, usize)>,
}

impl ResidentPass {
    /// A pass over `cols`, counting hits against `labels`. No network
    /// is resident until [`run`](Self::run).
    ///
    /// # Panics
    ///
    /// Panics if `labels` disagrees with the sample count.
    #[must_use]
    pub fn new(cols: ColumnMatrix, labels: ColumnLabels) -> Self {
        assert_eq!(cols.samples(), labels.len(), "label count mismatch");
        Self {
            cols,
            labels,
            scratch: ColumnarScratch::new(),
            spare_col: Vec::new(),
            spare_acts: Vec::new(),
            swapped: None,
        }
    }

    /// Run `mlp`'s whole forward pass and keep its hidden columns;
    /// returns the rows it classifies as labelled.
    ///
    /// # Panics
    ///
    /// As [`hits_columns`].
    pub fn run(&mut self, mlp: &AxMlp) -> usize {
        self.swapped = None;
        hits_columns(mlp, &self.cols, &self.labels, &mut self.scratch, None)
    }

    /// Bring the resident columns up to date with `mlp` after neuron
    /// `ni` of layer `li` changed, keeping what they replace for
    /// [`undo`](Self::undo), and count the hits. Apart from that neuron,
    /// `mlp` must be the network the columns hold: the last
    /// [`run`](Self::run)'s, with every trial since either undone or
    /// kept.
    ///
    /// # Panics
    ///
    /// Panics if layer `li` comes after `mlp`'s argmax layer (its
    /// neurons never reach a prediction) or has no neuron `ni`, or if
    /// no run kept columns of `mlp`'s shape.
    pub fn trial(&mut self, mlp: &AxMlp, li: usize, ni: usize) -> usize {
        let samples = self.labels.len();
        let hidden = hidden_layers(mlp);
        assert!(
            li <= hidden && li < mlp.layers.len(),
            "layer {li} never reaches a prediction"
        );
        self.swapped = None;
        if samples == 0 {
            return 0;
        }
        let ColumnarScratch { acts, bufs } = &mut self.scratch;
        let (cols, spare) = (&self.cols, &mut self.spare_col);
        if li < hidden {
            let layer = &mlp.layers[li];
            let q = layer.qrelu.expect("a hidden layer has a QReLU");
            let (neuron, inputs) = (&layer.neurons[ni], layer_inputs(mlp, cols, acts, li));
            let rung16 = pair_rung(layer) == Some(PairWidth::I16);
            hidden_column(neuron, inputs, samples, q, rung16, bufs, spare);
            std::mem::swap(spare, &mut acts[li][ni]);
            let spares = grown(&mut self.spare_acts, hidden);
            for l in li + 1..hidden {
                let inputs = layer_inputs(mlp, cols, acts, l);
                hidden_layer(mlp, l, inputs, samples, bufs, None, &mut spares[l]);
                std::mem::swap(&mut spares[l], &mut acts[l]);
            }
            self.swapped = Some((li, ni, hidden));
        }
        let inputs = layer_inputs(mlp, cols, acts, hidden);
        argmax_layer(mlp, hidden, inputs, &self.labels, bufs, None)
    }

    /// Revert the last [`trial`](Self::trial) by swapping back the hidden
    /// columns it replaced; a trial on the argmax layer replaced none.
    pub fn undo(&mut self) {
        let Some((li, ni, hidden)) = self.swapped.take() else {
            return;
        };
        let acts = &mut self.scratch.acts;
        std::mem::swap(&mut self.spare_col, &mut acts[li][ni]);
        self.spare_acts[li + 1..hidden].swap_with_slice(&mut acts[li + 1..hidden]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axmlp::{AxLayer, AxWeight, InferenceScratch};

    /// The executable specification of one weight's Eq. (4) term: its
    /// activation lookup table `lut[x] = s · ((x ⊙ m) ≪ k)` for every
    /// reachable activation `x`. The kernels evaluate the same entry
    /// analytically; the tests below pin the table to the per-sample
    /// oracle.
    ///
    /// The table covers `2^input_bits` entries — 16 for the paper's
    /// 4-bit inputs — widened (up to the full 256 `u8` values) when a
    /// hand-built weight carries mask bits above `input_bits`, so
    /// indexing with `x & (lut.len() - 1)` is exact for *any* `u8`
    /// activation.
    fn weight_lut(w: AxWeight, input_bits: u32, lut: &mut Vec<i32>) {
        // Bits that can influence `x & mask` for a u8 activation.
        let mask8 = w.mask & 0xFF;
        let need = 16 - mask8.leading_zeros();
        let bits = input_bits.max(need).min(8);
        lut.clear();
        lut.resize(1usize << bits, 0);
        if w.mask == 0 {
            return;
        }
        for (x, slot) in lut.iter_mut().enumerate() {
            let v = i32::from(x as u16 & w.mask) << w.shift;
            *slot = if w.negative { -v } else { v };
        }
    }

    fn weight(mask: u16, shift: u8, negative: bool) -> AxWeight {
        AxWeight {
            mask,
            shift,
            negative,
        }
    }

    fn two_layer_net() -> AxMlp {
        AxMlp {
            layers: vec![
                AxLayer {
                    input_bits: 4,
                    neurons: vec![
                        AxNeuron {
                            weights: vec![weight(0b1011, 2, false), weight(0b0110, 1, true)],
                            bias: -7,
                        },
                        AxNeuron {
                            weights: vec![weight(0, 3, true), weight(0b1111, 0, false)],
                            bias: 40,
                        },
                        AxNeuron {
                            weights: vec![weight(0b1111, 3, false), weight(0b1001, 0, true)],
                            bias: -120,
                        },
                    ],
                    qrelu: Some(QReluCfg {
                        out_bits: 8,
                        shift: 1,
                    }),
                },
                AxLayer {
                    input_bits: 8,
                    neurons: vec![
                        AxNeuron {
                            weights: vec![
                                weight(0xFF, 0, false),
                                weight(0x0F, 2, true),
                                weight(0xF0, 0, false),
                            ],
                            bias: 17,
                        },
                        AxNeuron {
                            weights: vec![
                                weight(0xFF, 1, true),
                                weight(0, 0, false),
                                weight(0xFF, 0, false),
                            ],
                            bias: 90,
                        },
                    ],
                    qrelu: None,
                },
            ],
        }
    }

    fn exhaustive_rows() -> QuantMatrix {
        let rows: Vec<Vec<u8>> = (0..=255u16)
            .map(|v| vec![(v & 0x0F) as u8, (v >> 4) as u8])
            .collect();
        QuantMatrix::from_rows(&rows)
    }

    #[test]
    fn quant_matrix_layout_round_trips() {
        let rows = vec![vec![1u8, 2, 3], vec![4, 5, 6]];
        let m = QuantMatrix::from_rows(&rows);
        assert_eq!(m.len(), 2);
        assert_eq!(m.width(), 3);
        assert_eq!(m.row(1), &[4, 5, 6]);
        assert_eq!(&m[0], &[1, 2, 3]);
        assert_eq!(m.as_flat(), &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m, QuantMatrix::from_flat(vec![1, 2, 3, 4, 5, 6], 3, 2));
        let collected: Vec<&[u8]> = m.iter().collect();
        assert_eq!(collected, vec![&[1u8, 2, 3][..], &[4, 5, 6][..]]);
        assert_eq!(m.head(1).row(0), &[1, 2, 3]);
        assert_eq!(m.select(&[1, 0, 1]).row(0), &[4, 5, 6]);
        let cols = m.columns();
        assert_eq!(cols.samples(), 2);
        assert_eq!(cols.col(0), &[1, 4]);
        assert_eq!(cols.col(2), &[3, 6]);
    }

    #[test]
    fn empty_matrix_is_well_defined() {
        let m = QuantMatrix::default();
        assert!(m.is_empty());
        assert_eq!(m.width(), 0);
        assert_eq!(m.columns().samples(), 0);
        // Width survives even with zero rows.
        let m = QuantMatrix::from_flat(Vec::new(), 5, 0);
        assert_eq!(m.width(), 5);
        assert_eq!(m.head(0).len(), 0);
    }

    #[test]
    #[should_panic(expected = "ragged row")]
    fn ragged_rows_are_rejected() {
        let _ = QuantMatrix::from_rows(&[vec![1u8, 2], vec![3u8]]);
    }

    #[test]
    fn lut_matches_the_scalar_weight_math() {
        for &(mask, shift, negative) in &[
            (0b1010u16, 1u8, false),
            (0b0110, 2, true),
            (0, 5, true),
            (0b1111, 0, false),
        ] {
            let w = weight(mask, shift, negative);
            let mut lut = Vec::new();
            weight_lut(w, 4, &mut lut);
            assert_eq!(lut.len(), 16);
            let n = AxNeuron {
                weights: vec![w],
                bias: 0,
            };
            for x in 0..16u8 {
                assert_eq!(
                    i64::from(lut[usize::from(x)]),
                    n.accumulate(&[x]),
                    "mask {mask:#b} shift {shift} neg {negative} x {x}"
                );
            }
        }
    }

    #[test]
    fn lut_widens_for_masks_beyond_the_declared_input_width() {
        // A hand-built weight with mask bits above input_bits=4 must
        // still agree with `accumulate` on every u8 activation.
        let w = weight(0xFFFF, 1, false);
        let mut lut = Vec::new();
        weight_lut(w, 4, &mut lut);
        assert_eq!(lut.len(), 256);
        let idx_mask = lut.len() - 1;
        let n = AxNeuron {
            weights: vec![w],
            bias: 0,
        };
        for x in 0..=255u8 {
            assert_eq!(
                i64::from(lut[usize::from(x) & idx_mask]),
                n.accumulate(&[x])
            );
        }
    }

    #[test]
    fn neuron_column_equals_per_sample_accumulate() {
        let neuron = AxNeuron {
            weights: vec![weight(0b1011, 3, true), weight(0b0101, 1, false)],
            bias: 23,
        };
        let m = exhaustive_rows();
        let (mut acc, mut narrow) = (Vec::new(), Vec::new());
        accumulate_neuron_column(&neuron, m.columns().cols(), m.len(), &mut acc, &mut narrow);
        for (s, row) in m.iter().enumerate() {
            assert_eq!(acc[s], neuron.accumulate(row), "sample {s}");
        }
    }

    /// The row oracle's prediction for every row of `m`.
    fn oracle_labels(mlp: &AxMlp, m: &QuantMatrix) -> ColumnLabels {
        let mut scratch = InferenceScratch::new();
        ColumnLabels::new(
            m.iter()
                .map(|row| mlp.predict_with(row, &mut scratch))
                .collect(),
        )
    }

    /// The forward pass hits every row when the row oracle's
    /// predictions are the labels, and misses every row when each
    /// label is moved to another class.
    fn assert_matches_the_row_oracle(mlp: &AxMlp, m: &QuantMatrix, scratch: &mut ColumnarScratch) {
        let cols = m.columns();
        let labels = oracle_labels(mlp, m);
        assert_eq!(hits_columns(mlp, &cols, &labels, scratch, None), m.len());
        let wrong = ColumnLabels::new(labels.classes().iter().map(|&l| l + 1).collect());
        assert_eq!(hits_columns(mlp, &cols, &wrong, scratch, None), 0);
    }

    /// [`two_layer_net`] with one output weight shifted past the `i32`
    /// bound, so the output layer runs at `i64` width.
    fn wide_output_net() -> AxMlp {
        let mut mlp = two_layer_net();
        mlp.layers[1].neurons[1].weights[0] = weight(0xFF, 24, true);
        assert!(!fits_i32(&mlp.layers[1].neurons[1]));
        mlp
    }

    /// [`two_layer_net`] with one output weight shifted past the `i16`
    /// range and past the pair kernels' shifts, so the output layer runs
    /// on the portable `i32` loop.
    fn narrow_output_net() -> AxMlp {
        let mut mlp = two_layer_net();
        mlp.layers[1].neurons[1].weights[0] = weight(0xFF, 8, false);
        assert!(fits_i32(&mlp.layers[1].neurons[1]));
        assert!(!layer_fits_i16(&mlp.layers[1]));
        mlp
    }

    /// [`two_layer_net`] with every output bias raised by 40,000: the
    /// same predictions, from ranges past `i16` at shifts the pair
    /// kernels multiply by, so the argmax sums on their `i32` lanes.
    fn raised_output_net() -> AxMlp {
        let mut mlp = two_layer_net();
        for neuron in &mut mlp.layers[1].neurons {
            neuron.bias += 40_000;
        }
        assert_eq!(pair_width(&mlp.layers[1]), Some(PairWidth::I32));
        mlp
    }

    /// One network per output-layer path: the pair kernels on `i16` and
    /// on `i32` lanes (where they run), and the portable `i32` and `i64`
    /// loops.
    fn rung_nets() -> [AxMlp; 4] {
        let short = two_layer_net();
        assert!(short.layers.iter().all(layer_fits_i16));
        [
            short,
            raised_output_net(),
            narrow_output_net(),
            wide_output_net(),
        ]
    }

    /// `n` rows of `width` bytes: all 255, then all 0, then a spread
    /// over the whole `u8` range.
    fn byte_rows(n: usize, width: usize) -> QuantMatrix {
        let rows: Vec<Vec<u8>> = (0..n)
            .map(|r| match r {
                0 => vec![0xFF; width],
                1 => vec![0; width],
                _ => (0..width)
                    .map(|f| ((r * 37 + f * 101) % 256) as u8)
                    .collect(),
            })
            .collect();
        QuantMatrix::from_rows(&rows)
    }

    /// Row counts around the 16-sample stripes: none, a tail alone, one
    /// stripe with and without a tail, and a study-sized split.
    const ROW_COUNTS: [usize; 7] = [0, 1, 15, 16, 17, 33, 2000];

    /// Four-input neurons whose accumulator range ends exactly on an
    /// `i16` bound or one LSB beyond it, at shifts the `i16` rung
    /// multiplies by and with pair sums up to ±32,640; neurons whose
    /// range fits `i16` but whose shift an `i8` multiplier cannot hold;
    /// and dead weights, which bound nothing. Each comes with whether it
    /// [`fits_i16`] and whether a layer of it takes the `i16` rung
    /// ([`layer_fits_i16`]).
    fn edge_neurons() -> Vec<(AxNeuron, bool, bool)> {
        let n = |weights: Vec<AxWeight>, bias| AxNeuron { weights, bias };
        let top = weight(0xFF, 6, false); // terms up to 16,320
        let bottom = weight(0xFF, 6, true);
        let low = weight(0x0F, 0, false);
        let off = weight(0, 9, true);
        vec![
            // [127, 32767] and one beyond.
            (n(vec![top, top, off, off], 127), true, true),
            (n(vec![top, top, off, off], 128), false, false),
            // [-32768, -113] and one beyond.
            (n(vec![bottom, bottom, low, off], -128), true, true),
            (n(vec![bottom, bottom, low, off], -129), false, false),
            // Two pair sums of ±32,640 each: [-32768, 32512].
            (n(vec![top; 4], -32768), true, true),
            (n(vec![bottom; 4], 32512), true, true),
            // A pair whose first weight is masked and whose second is
            // live.
            (n(vec![off, bottom, low, top], 0), true, true),
            // Shift 7: the range fits, the multiplier does not.
            (
                n(vec![weight(0xFF, 7, false), off, off, off], 127),
                true,
                false,
            ),
            (
                n(vec![weight(0xFF, 7, true), low, off, off], -128),
                true,
                false,
            ),
            // Terms past `i8` multipliers that span most of the range.
            (
                n(vec![weight(0xFF, 8, true), off, off, off], 32512),
                true,
                false,
            ),
            (
                n(vec![weight(0x01, 15, false), off, off, off], -32768),
                true,
                false,
            ),
            // A shift past the `i16` lanes, and mask bits above the
            // activation byte, which add nothing at any shift.
            (
                n(vec![weight(0x01, 16, false), off, off, off], 0),
                false,
                false,
            ),
            (
                n(vec![weight(0x100, 30, false), off, low, off], 5),
                true,
                true,
            ),
        ]
    }

    #[test]
    fn argmax_ties_break_to_the_lowest_index() {
        let a = [5i64, 1, 7];
        let b = [5i64, 2, 6];
        let c = [4i64, 2, 7];
        // s0: tie between neurons 0 and 1 -> 0; s1: tie between 1 and
        // 2 -> 1; s2: tie between 0 and 2 -> 0.
        let preds = argmax_columns(&[&a, &b, &c], 3);
        assert_eq!(preds, vec![0, 1, 0]);
        // No columns at all: every row predicts class 0.
        let none: &[Vec<u8>] = &[];
        assert_eq!(
            argmax_hits(none, &[0, 1, 0], &mut Vec::new(), &mut Vec::new()),
            2
        );
    }

    #[test]
    fn tied_output_neurons_predict_the_lowest_class() {
        for mut mlp in rung_nets() {
            let out = mlp.layers[1].neurons[1].clone();
            mlp.layers[1].neurons = vec![out.clone(), out];
            let m = exhaustive_rows();
            let cols = m.columns();
            let mut scratch = ColumnarScratch::new();
            let zeros = ColumnLabels::new(vec![0; m.len()]);
            let ones = ColumnLabels::new(vec![1; m.len()]);
            assert_eq!(
                hits_columns(&mlp, &cols, &zeros, &mut scratch, None),
                m.len()
            );
            assert_eq!(hits_columns(&mlp, &cols, &ones, &mut scratch, None), 0);
        }
    }

    #[test]
    fn columnar_forward_is_bit_exact_with_the_row_oracle() {
        let m = exhaustive_rows();
        let mut scratch = ColumnarScratch::new();
        // An `i16`, a narrow (`i32`) and a wide (`i64`) output layer.
        for mlp in rung_nets() {
            assert_matches_the_row_oracle(&mlp, &m, &mut scratch);
            // Accuracy agrees with the row-major API on the same labels.
            let labels: Vec<usize> = (0..m.len()).map(|i| i % 2).collect();
            assert_eq!(
                accuracy_columns(&mlp, &m.columns(), &labels),
                mlp.accuracy(&m, &labels)
            );
        }
    }

    #[test]
    fn perturbing_an_accumulator_equals_moving_its_bias() {
        // Adding `d` to a neuron's accumulator column is exactly what
        // raising its bias by `d` does, at every layer.
        let delta = |li: usize, ni: usize| (li as i32 * 3 + ni as i32) * 5 - 7;
        let perturb = |li: usize, ni: usize, acc: &mut [i64]| {
            for a in acc {
                *a += i64::from(delta(li, ni));
            }
        };
        let m = exhaustive_rows();
        let cols = m.columns();
        let mut scratch = ColumnarScratch::new();
        for mlp in rung_nets() {
            let mut moved = mlp.clone();
            for (li, layer) in moved.layers.iter_mut().enumerate() {
                for (ni, neuron) in layer.neurons.iter_mut().enumerate() {
                    neuron.bias += delta(li, ni);
                }
            }
            let labels = oracle_labels(&moved, &m);
            let hits = hits_columns(&mlp, &cols, &labels, &mut scratch, Some(&perturb));
            assert_eq!(hits, m.len());
            // The identity perturbation reproduces the nominal pass.
            let labels = oracle_labels(&mlp, &m);
            let identity = |_: usize, _: usize, _: &mut [i64]| {};
            let hits = hits_columns(&mlp, &cols, &labels, &mut scratch, Some(&identity));
            assert_eq!(hits, m.len());
        }
    }

    #[test]
    fn trailing_qrelu_network_argmaxes_the_activations() {
        // All-QReLU network: the row path argmaxes final activations.
        let mlp = AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![
                    AxNeuron {
                        weights: vec![weight(0b1111, 0, false)],
                        bias: 0,
                    },
                    AxNeuron {
                        weights: vec![weight(0b1111, 0, true)],
                        bias: 9,
                    },
                ],
                qrelu: Some(QReluCfg {
                    out_bits: 4,
                    shift: 0,
                }),
            }],
        };
        let rows: Vec<Vec<u8>> = (0..16u8).map(|v| vec![v]).collect();
        let m = QuantMatrix::from_rows(&rows);
        assert_matches_the_row_oracle(&mlp, &m, &mut ColumnarScratch::new());
        // With no layers at all, the inputs themselves are argmaxed.
        let bare = AxMlp { layers: Vec::new() };
        assert_matches_the_row_oracle(&bare, &exhaustive_rows(), &mut ColumnarScratch::new());
    }

    #[test]
    fn empty_dataset_scores_zero_by_convention() {
        let mlp = two_layer_net();
        let empty = QuantMatrix::from_flat(Vec::new(), 2, 0).columns();
        assert_eq!(accuracy_columns(&mlp, &empty, &[]), 0.0);
        let mut scratch = ColumnarScratch::new();
        let none = ColumnLabels::default();
        assert_eq!(hits_columns(&mlp, &empty, &none, &mut scratch, None), 0);
    }

    #[test]
    fn scratch_is_reusable_across_network_shapes() {
        let narrow = AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![
                    AxNeuron {
                        weights: vec![weight(0b1111, 0, false), weight(0, 0, false)],
                        bias: 0,
                    },
                    AxNeuron {
                        weights: vec![weight(0, 0, false), weight(0, 0, false)],
                        bias: 3,
                    },
                ],
                qrelu: None,
            }],
        };
        let m = exhaustive_rows();
        let mut scratch = ColumnarScratch::new();
        for mlp in [
            &two_layer_net(),
            &narrow,
            &wide_output_net(),
            &raised_output_net(),
            &narrow_output_net(),
            &two_layer_net(),
        ] {
            assert_matches_the_row_oracle(mlp, &m, &mut scratch);
        }
    }

    #[test]
    fn the_i16_bounds_are_inclusive() {
        for (neuron, fits, rung) in edge_neurons() {
            assert_eq!(fits_i16(&neuron), fits, "{neuron:?}");
            let layer = AxLayer {
                input_bits: 8,
                neurons: vec![neuron],
                qrelu: None,
            };
            assert_eq!(layer_fits_i16(&layer), rung, "{:?}", layer.neurons);
        }
    }

    #[test]
    fn every_rung_matches_the_row_oracle_at_the_i16_bounds() {
        let (fitting, beyond): (Vec<_>, Vec<_>) =
            edge_neurons().into_iter().partition(|(_, _, rung)| *rung);
        let mut fitting: Vec<AxNeuron> = fitting.into_iter().map(|(n, ..)| n).collect();
        // A duplicate: the lower index wins the tie.
        fitting.push(fitting[0].clone());
        let mut all = fitting.clone();
        all.extend(beyond.into_iter().map(|(n, ..)| n));
        let argmax = |neurons: Vec<AxNeuron>| AxMlp {
            layers: vec![AxLayer {
                input_bits: 8,
                neurons,
                qrelu: None,
            }],
        };
        let short = argmax(fitting.clone());
        let narrow = argmax(all);
        assert!(layer_fits_i16(&short.layers[0]));
        assert!(!layer_fits_i16(&narrow.layers[0]));
        // Hidden layers at QReLU shifts inside and past the `i16`
        // lanes; from 32 on the vector pack declines and the layer
        // takes the portable loops.
        let outputs: Vec<AxNeuron> = (0..3)
            .map(|i| AxNeuron {
                weights: (0..fitting.len())
                    .map(|j| weight(0xFF, ((i + j) % 3) as u8, (i + j) % 2 == 0))
                    .collect(),
                bias: 5 - i as i32,
            })
            .collect();
        let mut nets = vec![short, narrow];
        for shift in [0, 7, 8, 14, 15, 16, 20, 31, 32, 40] {
            let hidden = AxLayer {
                input_bits: 8,
                neurons: fitting.clone(),
                qrelu: Some(QReluCfg { out_bits: 8, shift }),
            };
            assert_eq!(layer_fits_i16(&hidden), shift < 32);
            let output = AxLayer {
                input_bits: 8,
                neurons: outputs.clone(),
                qrelu: None,
            };
            nets.push(AxMlp {
                layers: vec![hidden, output],
            });
        }
        let mut scratch = ColumnarScratch::new();
        for rows in ROW_COUNTS {
            let m = byte_rows(rows, 4);
            for mlp in &nets {
                assert_matches_the_row_oracle(mlp, &m, &mut scratch);
            }
        }
    }

    #[test]
    fn labels_outside_the_classes_never_hit() {
        let lanes = ColumnLabels::new(vec![0, 32767, 32768, usize::MAX]).lanes;
        assert_eq!(lanes, vec![0, 32767, -1, -1]);
        let m = exhaustive_rows();
        let cols = m.columns();
        let mut scratch = ColumnarScratch::new();
        let outside = [2, 3, 32767, 32768, 40000, usize::MAX];
        let labels = ColumnLabels::new((0..m.len()).map(|i| outside[i % 6]).collect());
        for mlp in rung_nets() {
            assert_eq!(hits_columns(&mlp, &cols, &labels, &mut scratch, None), 0);
        }
    }
}
