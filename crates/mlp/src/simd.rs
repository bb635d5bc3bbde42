//! Explicit `std::arch` x86_64 column kernels, runtime
//! feature-detected.
//!
//! The scalar kernel in [`crate::columnar`] already auto-vectorizes
//! well, but the compiler must keep the `u8` widening, the AND and the
//! variable shift composable for any weight; writing the loop directly
//! against the ISA pins the exact instruction mix. Each layer runs on
//! the narrowest lanes its accumulator range fits, a ladder
//! [`crate::columnar::hits_columns`] climbs per layer:
//!
//! * **`i16`, 16 samples per AVX2 step, two weights per multiply**
//!   when every value each accumulator can take,
//!   `[bias − Σneg, bias + Σpos]`, lies inside `i16`
//!   ([`fits_i16`](crate::columnar::fits_i16)) and every live weight
//!   shifts by at most 6
//!   ([`layer_fits_i16`](crate::columnar::layer_fits_i16)). The inputs
//!   travel byte-interleaved in pairs (`interleave_pairs`): one
//!   32-byte vector holds 16 rows of inputs `2p` and `2p + 1`, `x₂ₚ[r]`
//!   and `x₂ₚ₊₁[r]` in `i16` lane `r`. A pair of weights costs one AND
//!   with the pair's two masks, one `vpmaddubsw` (the data is the
//!   unsigned operand) by the pair's multipliers `±2^k` as `i8` (0 for
//!   a masked weight), and one add: three instructions for two weights.
//!   A pair is skipped only when both of its masks are 0. Each product
//!   is at most 255 · 64, so a pair sum stays within ±32,640 and the
//!   multiply never saturates; every partial sum lies inside the
//!   neuron's range, and the `i16` sums would be exact mod 2^16 even if
//!   one did not. The `i8` multiplier is why the rung needs `k ≤ 6`.
//!   The dataset's features come interleaved once
//!   ([`ColumnMatrix`](crate::columnar::ColumnMatrix) keeps their
//!   pairs); hidden activations stay one `u8` column per neuron, and a
//!   pass interleaves a hidden layer's columns (SSE2 `punpcklbw` /
//!   `punpckhbw`) once before the next layer reads them. A hidden layer
//!   runs two neurons per stripe pass, sharing each pair load, and
//!   QReLU-packs each straight to its `u8` column
//!   (`hidden_columns_i16`). The argmax layer is one pass per 16-row
//!   stripe (`argmax_hits_i16`): it loads the stripe's pair vectors
//!   once, up to 4 in registers (a wider layer takes them in blocks,
//!   keeping each neuron's partial sum between blocks), accumulates
//!   each output neuron in a register, and keeps the running best
//!   value, its index and the hit count in registers; no output column
//!   is stored. The last, partial stripe runs the same code on
//!   zero-padded pairs. Needs AVX2 ([`i16_lanes`]); without it the
//!   `i32` rung serves these layers.
//! * **`i32`, 8 samples per AVX2 step** (4 on the SSE2 fallback) when
//!   the worst-case `|accumulator|` fits `i32`
//!   ([`fits_i32`](crate::columnar::fits_i32)): widen to `i32` lanes
//!   (`vpmovzxbd`), AND, shift by the weight's scalar count
//!   (`vpslld`), add or subtract; then a vectorized QReLU pack and
//!   running-argmax update. Per sample the weights contribute in
//!   their original order, so the sums equal the scalar kernel's bit
//!   for bit.
//! * **`i64`** — the scalar loop in [`crate::columnar`], on every
//!   build, for hand-built extremes and for the robust search's
//!   perturbed accumulators.
//!
//! SSE2 is part of the x86_64 baseline, so the `i32` fallback needs no
//! runtime check. On other architectures — or with the `simd` cargo
//! feature off — the `i32` entry points report that they did not run,
//! callers take the scalar `i32` kernel, and [`i16_lanes`] is `false`,
//! keeping every target green without `cfg` soup at the call sites.

use crate::axmlp::AxNeuron;
use crate::quant::QReluCfg;

/// Whether the explicit SIMD kernels can run on this host (compiled
/// in *and* the ISA baseline present). `false` means
/// [`accumulate_neuron_column_simd`] always declines and the caller's
/// scalar fallback serves.
#[must_use]
pub fn available() -> bool {
    cfg!(all(feature = "simd", target_arch = "x86_64"))
}

/// [`accumulate_neuron_column_narrow_scalar`] via explicit `std::arch`
/// intrinsics where available. Returns `true` when the kernel ran
/// (results in `acc`, bit-exact with the scalar reference) and `false`
/// when the caller must fall back — off-target builds, the `simd`
/// feature disabled, or a neuron outside the narrow precondition.
///
/// [`accumulate_neuron_column_narrow_scalar`]: crate::columnar::accumulate_neuron_column_narrow_scalar
pub fn accumulate_neuron_column_simd<C: AsRef<[u8]>>(
    neuron: &AxNeuron,
    inputs: &[C],
    samples: usize,
    acc: &mut Vec<i32>,
) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if !crate::columnar::fits_i32(neuron) {
            return false;
        }
        x86::accumulate(neuron, inputs, samples, acc);
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (neuron, inputs, samples, acc);
        false
    }
}

/// Vectorized QReLU over a narrow accumulator column: shift, clamp to
/// `[0, 2^out_bits − 1]`, narrow to `u8` — bit-exact with the scalar
/// [`qrelu_column`](crate::columnar::qrelu_column) over the widened
/// column. Returns `true` when the vector path ran; `false`
/// (off-target, `simd` feature off, AVX2 absent, or `out_bits > 8`
/// where the scalar `as u8` narrowing could wrap) means the caller must
/// fall back.
pub fn qrelu_column_narrow_simd(q: QReluCfg, acc: &[i32], out: &mut Vec<u8>) -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if !packs_to_u8(q) || !x86::has_avx2() {
            return false;
        }
        x86::qrelu(q, acc, out);
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (q, acc, out);
        false
    }
}

/// One argmax column update, vectorized: for every sample `i` with
/// `col[i] > best_value[i]`, set `best_value[i] = col[i]` and
/// `best_index[i] = j`. Strictly-greater keeps ties at the lowest
/// index, exactly like the scalar sweep. Returns `false` when the
/// caller must run its scalar fallback.
///
/// # Panics
///
/// Panics if the three slices disagree in length.
pub fn argmax_update_narrow(
    j: u32,
    col: &[i32],
    best_index: &mut [u32],
    best_value: &mut [i32],
) -> bool {
    assert_eq!(col.len(), best_value.len(), "column length mismatch");
    assert_eq!(col.len(), best_index.len(), "column length mismatch");
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        if !x86::has_avx2() {
            return false;
        }
        x86::argmax_update(j, col, best_index, best_value);
        true
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        let _ = (j, col, best_index, best_value);
        false
    }
}

/// Whether a vector QReLU pack reproduces `q`'s scalar saturation:
/// `out_bits <= 8` (the scalar `as u8` would wrap a wider stage, where
/// the pack saturates) and `shift < 32`.
#[must_use]
pub(crate) fn packs_to_u8(q: QReluCfg) -> bool {
    q.out_bits <= 8 && q.shift < 32
}

/// Whether the `i16` rung's kernels run on this host: the `simd`
/// feature built on x86_64 and AVX2 detected at runtime. Where this is
/// `false`, [`hits_columns`](crate::columnar::hits_columns) runs the
/// neurons the rung would take on the `i32` kernels.
#[must_use]
pub fn i16_lanes() -> bool {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        x86::has_avx2()
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        false
    }
}

/// The widest weight shift the `i16` rung multiplies by: `±2^6` is the
/// largest power of two an `i8` multiplier holds both signs of.
pub(crate) const MAX_PAIR_SHIFT: u8 = 6;

/// 32 bytes aligned for one vector load: a mask, multiplier, bias or
/// partial sum repeated over (or held in) the 16 `i16` lanes.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
pub(crate) struct Lanes([u64; 4]);

impl Lanes {
    /// `lane` in every `i16` lane.
    #[inline]
    fn splat(lane: u16) -> Self {
        Self([u64::from(lane) * 0x0001_0001_0001_0001; 4])
    }
}

/// Interleave `cols` (each `samples` rows) into `out` in the layout the
/// `i16` rung's pair kernels load, 16-row stripe by stripe: with `P`
/// pairs, pair `p` of stripe `c` is the 32 bytes at `32 · (c · P + p)`,
/// inputs `2p` and `2p + 1` of each of the stripe's rows in turn. Zeros
/// stand in for the second input of an odd count's last pair and for
/// the rows past the last in the last stripe.
/// [`ColumnMatrix`](crate::columnar::ColumnMatrix) keeps the dataset's
/// pairs; a forward pass interleaves a hidden layer's columns once.
pub(crate) fn interleave_pairs<C: AsRef<[u8]>>(cols: &[C], samples: usize, out: &mut Vec<u8>) {
    let (pairs, stripes) = (cols.len().div_ceil(2), samples.div_ceil(16));
    // `truncate` then `resize` sets the length and writes only what
    // grows: every byte is overwritten below.
    out.truncate(32 * pairs * stripes);
    out.resize(32 * pairs * stripes, 0);
    for (p, two) in cols.chunks(2).enumerate() {
        for c in 0..stripes {
            let a = stripe_rows(two[0].as_ref(), c);
            let b = two
                .get(1)
                .map_or([0; 16], |col| stripe_rows(col.as_ref(), c));
            let at = 32 * (c * pairs + p);
            #[cfg(all(feature = "simd", target_arch = "x86_64"))]
            x86::interleave(a, b, &mut out[at..at + 32]);
            #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
            for (dst, (&a, &b)) in out[at..at + 32].chunks_exact_mut(2).zip(a.iter().zip(&b)) {
                dst[0] = a;
                dst[1] = b;
            }
        }
    }
}

/// Rows `16c..16c + 16` of `col`, zeros past its end.
#[inline]
fn stripe_rows(col: &[u8], c: usize) -> [u8; 16] {
    match col.get(16 * c..16 * c + 16) {
        Some(rows) => rows.try_into().expect("16 rows"),
        None => last_rows(&col[16 * c..]),
    }
}

/// A last stripe's rows, zero-filled to 16.
#[cold]
fn last_rows(rows: &[u8]) -> [u8; 16] {
    let mut padded = [0; 16];
    padded[..rows.len()].copy_from_slice(rows);
    padded
}

/// The mask and multiplier lanes of `neuron`'s weights `2p` and
/// `2p + 1` on the pair kernels: the mask bytes `mask & 0xFF` and the
/// multiplier bytes `±2^k` as `i8`, each pair as one little-endian `i16`
/// lane. A weight that adds nothing (a zero mask byte, or no weight, the
/// empty half of an odd fan-in's last pair) has zero bytes.
#[inline]
fn pair_lanes(neuron: &AxNeuron, p: usize) -> (u16, u16) {
    let byte = |i: usize| match neuron.weights.get(i) {
        Some(w) if w.mask & 0xFF != 0 => {
            debug_assert!(w.shift <= MAX_PAIR_SHIFT, "the multiplier must fit i8");
            let step = 1i8 << w.shift;
            let step = if w.negative {
                step.wrapping_neg()
            } else {
                step
            };
            ((w.mask & 0xFF) as u8, step as u8)
        }
        _ => (0, 0),
    };
    let ((ma, ka), (mb, kb)) = (byte(2 * p), byte(2 * p + 1));
    (u16::from_le_bytes([ma, mb]), u16::from_le_bytes([ka, kb]))
}

/// The inputs of an `i16`-rung layer: `count` inputs, interleaved in
/// pairs as [`interleave_pairs`] lays them out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairInputs<'a> {
    /// How many inputs the pairs hold.
    pub(crate) count: usize,
    /// The interleaved stripes.
    pub(crate) pairs: &'a [u8],
}

/// The reusable buffers of the `i16` kernels: the terms one call
/// accumulates and their constants. Once grown, a call allocates
/// nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct PairScratch {
    /// Per term (a pair some neuron of a group weighs with a live mask):
    /// the byte offset of its pair among a stripe's pairs.
    offsets: Vec<usize>,
    /// Per term and per neuron of its group: the mask, then the
    /// multiplier.
    consts: Vec<Lanes>,
    /// The argmax layer's biases, one per output neuron.
    biases: Vec<Lanes>,
    /// The argmax layer's partial sums between blocks of pairs, one
    /// per output neuron.
    partial: Vec<Lanes>,
}

impl PairScratch {
    /// Append the argmax layer's constants: for each block of `width`
    /// pairs, each neuron's mask and multiplier pairs for each pair of
    /// the block (zeros past the last pair), and each neuron's bias.
    fn push_outputs(&mut self, neurons: &[AxNeuron], inputs: usize, width: usize) {
        let pairs = inputs.div_ceil(2);
        for block in 0..pairs.div_ceil(width).max(1) {
            for n in neurons {
                for pair in block * width..(block + 1) * width {
                    let (mask, mult) = pair_lanes(n, pair);
                    self.consts.push(Lanes::splat(mask));
                    self.consts.push(Lanes::splat(mult));
                }
            }
        }
        for n in neurons {
            self.biases.push(Lanes::splat(n.bias as u16));
        }
        self.partial.resize(neurons.len(), Lanes::default());
    }

    /// Append the terms of `group` (neurons accumulated in one pass)
    /// over `inputs` inputs: one per pair that some neuron of the group
    /// weighs with a non-zero mask, holding each neuron's mask and
    /// multiplier pairs.
    fn push_terms(&mut self, group: &[AxNeuron], inputs: usize) {
        for pair in 0..inputs.div_ceil(2) {
            let kept = self.consts.len();
            let mut live = false;
            for n in group {
                let (mask, mult) = pair_lanes(n, pair);
                live |= mask != 0;
                self.consts.push(Lanes::splat(mask));
                self.consts.push(Lanes::splat(mult));
            }
            if live {
                self.offsets.push(32 * pair);
            } else {
                self.consts.truncate(kept);
            }
        }
    }
}

/// Check the shape an `i16` kernel reads and start a call: `neurons`
/// weigh every input and the pairs hold every stripe of `samples` rows.
fn start(scratch: &mut PairScratch, neurons: &[AxNeuron], inputs: PairInputs<'_>, samples: usize) {
    assert!(i16_lanes(), "the i16 kernels need AVX2");
    for n in neurons {
        assert_eq!(n.weights.len(), inputs.count, "input count mismatch");
    }
    let want = 32 * inputs.count.div_ceil(2) * samples.div_ceil(16);
    assert_eq!(inputs.pairs.len(), want, "input pair length mismatch");
    scratch.offsets.clear();
    scratch.consts.clear();
    scratch.biases.clear();
}

/// Hidden columns on the `i16` rung: accumulate `neurons` (one or two,
/// sharing each input load) over `inputs`, 16 samples per step, and
/// QReLU-pack each straight into its `u8` column of `outs`, `samples`
/// long. Bit-exact with the `i32` rung's columns.
///
/// # Panics
///
/// Panics without [`i16_lanes`], unless `neurons` and `outs` both hold
/// one or two, if a neuron's fan-in differs from the input count, or if
/// the pairs do not hold `samples` rows. The layer must
/// [`layer_fits_i16`](crate::columnar::layer_fits_i16); debug builds
/// check that `q` packs to `u8`.
pub(crate) fn hidden_columns_i16(
    neurons: &[AxNeuron],
    inputs: PairInputs<'_>,
    samples: usize,
    q: QReluCfg,
    scratch: &mut PairScratch,
    outs: &mut [Vec<u8>],
) {
    assert!(
        matches!(neurons.len(), 1 | 2) && outs.len() == neurons.len(),
        "one or two neurons per pass"
    );
    debug_assert!(packs_to_u8(q), "the QReLU must pack to u8");
    start(scratch, neurons, inputs, samples);
    scratch.push_terms(neurons, inputs.count);
    for out in &mut *outs {
        // `truncate` then `resize` sets the length and writes only what
        // grows: the kernel overwrites every element.
        out.truncate(samples);
        out.resize(samples, 0);
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    x86::hidden(neurons, inputs, q, scratch, outs);
}

/// How many pairs the argmax kernel holds in registers at once, for a
/// layer over `pairs` input pairs: up to 4, in as few blocks as hold
/// them all, and at least one.
fn argmax_width(pairs: usize) -> usize {
    pairs.div_ceil(pairs.div_ceil(4).max(1)).max(1)
}

/// Rows whose argmax over `neurons`' accumulators equals their `i16`
/// label: one pass per 16-row stripe loads the stripe's pair vectors
/// once, accumulates each output neuron in a register, and keeps the
/// running best value, its index and the hit count in registers. A
/// layer over more than 4 input pairs takes them in blocks, keeping each
/// neuron's partial sum between blocks. Ties go to the lowest index
/// (strictly greater wins), as in
/// [`argmax_hits`](crate::columnar::argmax_hits); no neurons predict
/// class 0.
///
/// # Panics
///
/// Panics without [`i16_lanes`], with more than 2^15 neurons (their
/// indices must fit `i16` lanes), if a neuron's fan-in differs from the
/// input count, or if the pairs do not hold `labels.len()` rows. The
/// layer must [`layer_fits_i16`](crate::columnar::layer_fits_i16).
#[must_use]
pub(crate) fn argmax_hits_i16(
    neurons: &[AxNeuron],
    inputs: PairInputs<'_>,
    labels: &[i16],
    scratch: &mut PairScratch,
) -> usize {
    assert!(neurons.len() <= 1 << 15, "class indices must fit i16 lanes");
    if neurons.is_empty() {
        return labels.iter().filter(|&&l| l == 0).count();
    }
    start(scratch, neurons, inputs, labels.len());
    scratch.push_outputs(
        neurons,
        inputs.count,
        argmax_width(inputs.count.div_ceil(2)),
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        x86::argmax_hits(inputs, labels, scratch)
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        unreachable!("no i16 lanes without the x86_64 `simd` build")
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod x86 {
    //! The x86_64 lowering. `unsafe` is confined to this module: the
    //! intrinsics themselves (safe on any x86_64 for SSE2; gated by
    //! `is_x86_feature_detected!` for AVX2) and the
    //! `#[target_feature]` call boundary.

    use std::arch::x86_64::{
        __m128i, __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_and_si256, _mm256_blendv_epi8,
        _mm256_castsi256_si128, _mm256_cmpeq_epi16, _mm256_cmpgt_epi16, _mm256_cmpgt_epi32,
        _mm256_cvtepu8_epi32, _mm256_extracti128_si256, _mm256_load_si256, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_maddubs_epi16, _mm256_max_epi16, _mm256_max_epi32,
        _mm256_min_epi16, _mm256_min_epi32, _mm256_packus_epi16, _mm256_packus_epi32,
        _mm256_permutevar8x32_epi32, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set_epi32,
        _mm256_setzero_si256, _mm256_sll_epi32, _mm256_sra_epi16, _mm256_sra_epi32,
        _mm256_store_si256, _mm256_storeu_si256, _mm256_sub_epi16, _mm256_sub_epi32, _mm_add_epi32,
        _mm_and_si128, _mm_cvtsi32_si128, _mm_loadl_epi64, _mm_loadu_si128, _mm_packus_epi16,
        _mm_set1_epi32, _mm_setzero_si128, _mm_sll_epi32, _mm_storeu_si128, _mm_sub_epi32,
        _mm_unpackhi_epi16, _mm_unpackhi_epi8, _mm_unpacklo_epi16, _mm_unpacklo_epi8,
    };
    use std::sync::OnceLock;

    use super::{Lanes, PairInputs, PairScratch};
    use crate::axmlp::AxNeuron;
    use crate::quant::QReluCfg;

    /// Runtime AVX2 detection, probed once per process.
    pub(super) fn has_avx2() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }

    /// How many weights one `i32` AVX2 stripe pass fuses: the
    /// accumulator vector stays in a register across the whole block,
    /// so the per-weight accumulator load/store of a weight-outer loop
    /// is paid once per block instead of once per weight.
    const BLOCK: usize = 8;

    /// Shift–clamp–narrow one column, 32 samples per step.
    /// Preconditions (checked by the caller): AVX2 present,
    /// `out_bits <= 8`, `shift < 32`.
    pub(super) fn qrelu(q: QReluCfg, acc: &[i32], out: &mut Vec<u8>) {
        let samples = acc.len();
        out.clear();
        out.resize(samples, 0);
        let chunks = samples / 32;
        // SAFETY: AVX2 was confirmed by the caller; every pointer stays
        // below `chunks * 32 <= samples` on both buffers.
        unsafe { qrelu_avx2(q, acc, out, chunks) };
        let kernel = q.kernel();
        for (o, &a) in out[chunks * 32..].iter_mut().zip(&acc[chunks * 32..]) {
            *o = kernel.apply(i64::from(a));
        }
    }

    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2 and that both
    /// slices hold at least `chunks * 32` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn qrelu_avx2(q: QReluCfg, acc: &[i32], out: &mut [u8], chunks: usize) {
        let count = _mm_cvtsi32_si128(q.shift as i32);
        let zero = _mm256_setzero_si256();
        let ceil = _mm256_set1_epi32((1 << q.out_bits) - 1);
        // packus interleaves 128-bit lanes; this dword order undoes it.
        let order = _mm256_set_epi32(7, 3, 6, 2, 5, 1, 4, 0);
        for c in 0..chunks {
            // SAFETY: `c * 32 + 32 <= samples` bounds the four loads
            // and the 32-byte store.
            unsafe {
                let at = |k: usize| -> std::arch::x86_64::__m256i {
                    let v = _mm256_loadu_si256(acc.as_ptr().add(c * 32 + k * 8).cast());
                    _mm256_min_epi32(_mm256_max_epi32(_mm256_sra_epi32(v, count), zero), ceil)
                };
                let lo = _mm256_packus_epi32(at(0), at(1));
                let hi = _mm256_packus_epi32(at(2), at(3));
                let bytes = _mm256_packus_epi16(lo, hi);
                let fixed = _mm256_permutevar8x32_epi32(bytes, order);
                _mm256_storeu_si256(out.as_mut_ptr().add(c * 32).cast(), fixed);
            }
        }
    }

    /// One argmax column update pass at 8 lanes per step.
    /// Precondition (checked by the caller): AVX2 present, equal slice
    /// lengths.
    pub(super) fn argmax_update(
        j: u32,
        col: &[i32],
        best_index: &mut [u32],
        best_value: &mut [i32],
    ) {
        let chunks = col.len() / 8;
        // SAFETY: AVX2 was confirmed by the caller; all pointers stay
        // below `chunks * 8 <= len` on all three equal-length buffers.
        unsafe { argmax_update_avx2(j, col, best_index, best_value, chunks) };
        for i in chunks * 8..col.len() {
            if col[i] > best_value[i] {
                best_value[i] = col[i];
                best_index[i] = j;
            }
        }
    }

    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2 and that all three
    /// slices hold at least `chunks * 8` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn argmax_update_avx2(
        j: u32,
        col: &[i32],
        best_index: &mut [u32],
        best_value: &mut [i32],
        chunks: usize,
    ) {
        let jv = _mm256_set1_epi32(j as i32);
        for c in 0..chunks {
            // SAFETY: `c * 8 + 8 <= len` bounds every load and store.
            unsafe {
                let x = _mm256_loadu_si256(col.as_ptr().add(c * 8).cast());
                let vs = best_value.as_mut_ptr().add(c * 8).cast();
                let is = best_index.as_mut_ptr().add(c * 8).cast();
                let v = _mm256_loadu_si256(vs);
                let take = _mm256_cmpgt_epi32(x, v);
                _mm256_storeu_si256(vs, _mm256_blendv_epi8(v, x, take));
                let idx = _mm256_loadu_si256(is);
                _mm256_storeu_si256(is, _mm256_blendv_epi8(idx, jv, take));
            }
        }
    }

    /// Interleave 16 bytes of `a` and of `b` into `out` (SSE2, the
    /// x86_64 baseline, always safe to call).
    #[inline]
    pub(super) fn interleave(a: [u8; 16], b: [u8; 16], out: &mut [u8]) {
        let out = &mut out[..32];
        // SAFETY: SSE2 is part of the x86_64 baseline; `a` and `b` hold
        // 16 bytes and `out` 32.
        unsafe {
            let a = _mm_loadu_si128(a.as_ptr().cast());
            let b = _mm_loadu_si128(b.as_ptr().cast());
            _mm_storeu_si128(out.as_mut_ptr().cast(), _mm_unpacklo_epi8(a, b));
            _mm_storeu_si128(out[16..].as_mut_ptr().cast(), _mm_unpackhi_epi8(a, b));
        }
    }

    /// One constant's 16 lanes.
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn lanes(l: &Lanes) -> __m256i {
        // SAFETY: `Lanes` is 32 bytes aligned to 32.
        unsafe { _mm256_load_si256(std::ptr::from_ref(l).cast()) }
    }

    /// The stripes of
    /// [`hidden_columns_i16`](super::hidden_columns_i16), over the terms
    /// in `scratch`. Preconditions (checked by the caller): one or two
    /// neurons and as many `outs`, the pairs holding every stripe of
    /// `outs`' rows.
    pub(super) fn hidden(
        neurons: &[AxNeuron],
        inputs: PairInputs<'_>,
        q: QReluCfg,
        scratch: &PairScratch,
        outs: &mut [Vec<u8>],
    ) {
        assert!(has_avx2(), "the i16 kernels need AVX2");
        // SAFETY: AVX2 was confirmed above; the caller checked the
        // pairs' length.
        unsafe {
            match outs {
                [a] => hidden_avx2(neurons, inputs, scratch, q, [a]),
                [a, b] => hidden_avx2(neurons, inputs, scratch, q, [a, b]),
                _ => unreachable!("one or two neurons per pass"),
            }
        }
    }

    /// Each stripe of `N` neurons: every term loads its pair vector
    /// once, then each neuron ANDs it with its mask pair, multiplies and
    /// adds the pair (`vpmaddubsw`) and adds the pair sums to its
    /// accumulator, which starts at the bias. Every partial sum lies in
    /// the neuron's range, so no lane wraps; the QReLU then packs each
    /// accumulator to 16 bytes of its column (the rows there are of the
    /// last stripe).
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2 and that the pairs
    /// hold every stripe of `outs`' rows.
    #[target_feature(enable = "avx2")]
    unsafe fn hidden_avx2<const N: usize>(
        neurons: &[AxNeuron],
        inputs: PairInputs<'_>,
        scratch: &PairScratch,
        q: QReluCfg,
        mut outs: [&mut Vec<u8>; N],
    ) {
        let zero = _mm256_setzero_si256();
        let count = _mm_cvtsi32_si128(q.shift as i32);
        let ceil = _mm256_set1_epi16(((1i32 << q.out_bits) - 1) as i16);
        let mut bias = [zero; N];
        for (b, n) in bias.iter_mut().zip(neurons) {
            *b = _mm256_set1_epi16(n.bias as i16);
        }
        let stride = 32 * inputs.count.div_ceil(2);
        for c in 0..outs[0].len().div_ceil(16) {
            let block = &inputs.pairs[c * stride..(c + 1) * stride];
            let mut acc = bias;
            for (&offset, k) in scratch
                .offsets
                .iter()
                .zip(scratch.consts.chunks_exact(2 * N))
            {
                debug_assert!(
                    offset + 32 <= block.len(),
                    "a term's pair lies in the block"
                );
                // SAFETY: `push_terms` sets every offset to a pair's,
                // below the block's end.
                let v = unsafe { _mm256_loadu_si256(block.as_ptr().add(offset).cast()) };
                for (n, acc) in acc.iter_mut().enumerate() {
                    // SAFETY: AVX2 is enabled here.
                    let (m, w) = unsafe { (lanes(&k[2 * n]), lanes(&k[2 * n + 1])) };
                    *acc = _mm256_add_epi16(*acc, _mm256_maddubs_epi16(_mm256_and_si256(v, m), w));
                }
            }
            for (acc, out) in acc.iter().zip(outs.iter_mut()) {
                let shifted = _mm256_sra_epi16(*acc, count);
                let v = _mm256_min_epi16(_mm256_max_epi16(shifted, zero), ceil);
                let packed =
                    _mm_packus_epi16(_mm256_castsi256_si128(v), _mm256_extracti128_si256::<1>(v));
                match out.get_mut(16 * c..16 * c + 16) {
                    // SAFETY: `rows` holds 16 bytes.
                    Some(rows) => unsafe { _mm_storeu_si128(rows.as_mut_ptr().cast(), packed) },
                    None => {
                        let mut rows = [0u8; 16];
                        // SAFETY: `rows` holds 16 bytes.
                        unsafe { _mm_storeu_si128(rows.as_mut_ptr().cast(), packed) };
                        let column = &mut out[16 * c..];
                        let len = column.len();
                        column.copy_from_slice(&rows[..len]);
                    }
                }
            }
        }
    }

    /// The hits of [`argmax_hits_i16`](super::argmax_hits_i16), over the
    /// constants in `scratch`. Preconditions (checked by the caller): at
    /// least one neuron, the pairs holding every stripe of the labels'
    /// rows.
    pub(super) fn argmax_hits(
        inputs: PairInputs<'_>,
        labels: &[i16],
        scratch: &mut PairScratch,
    ) -> usize {
        assert!(has_avx2(), "the i16 kernels need AVX2");
        // SAFETY: AVX2 was confirmed above.
        unsafe {
            match super::argmax_width(inputs.count.div_ceil(2)) {
                1 => argmax_avx2::<1>(inputs, scratch, labels),
                2 => argmax_avx2::<2>(inputs, scratch, labels),
                3 => argmax_avx2::<3>(inputs, scratch, labels),
                4 => argmax_avx2::<4>(inputs, scratch, labels),
                _ => unreachable!("blocks hold one to four pairs"),
            }
        }
    }

    /// Each stripe: for each block of `W` pairs, load the block's pair
    /// vectors once and run every output neuron's `W` pairs in a
    /// register, from its bias or its partial sum; after the last block
    /// fold each neuron into the running best (strictly greater wins, so
    /// ties stay at the lowest index), then tally per lane the rows
    /// whose best index equals the label. The last stripe's rows past
    /// the labels carry the label −1, which no index equals.
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn argmax_avx2<const W: usize>(
        inputs: PairInputs<'_>,
        scratch: &mut PairScratch,
        labels: &[i16],
    ) -> usize {
        let PairScratch {
            consts,
            biases,
            partial,
            ..
        } = scratch;
        let pairs = inputs.count.div_ceil(2);
        let blocks = pairs.div_ceil(W).max(1);
        let one = _mm256_set1_epi16(1);
        let (mut hits, mut tally) = (0, _mm256_setzero_si256());
        for (c, rows) in labels.chunks(16).enumerate() {
            let stripe = &inputs.pairs[32 * pairs * c..32 * pairs * (c + 1)];
            let mut best = _mm256_set1_epi16(i16::MIN);
            let mut index = _mm256_setzero_si256();
            let mut j = index;
            let mut neurons = consts.chunks_exact(2 * W);
            for block in 0..blocks {
                let mut pv = [_mm256_setzero_si256(); W];
                for (q, v) in pv.iter_mut().enumerate() {
                    let at = 32 * (W * block + q);
                    if at < stripe.len() {
                        // SAFETY: `at + 32 <= stripe.len()`: the stripe
                        // holds whole pairs.
                        *v = unsafe { _mm256_loadu_si256(stripe.as_ptr().add(at).cast()) };
                    }
                }
                let last = block + 1 == blocks;
                for ((bias, part), k) in biases.iter().zip(partial.iter_mut()).zip(&mut neurons) {
                    // SAFETY: AVX2 is enabled here.
                    let mut acc = unsafe { lanes(if block == 0 { bias } else { part }) };
                    for (q, v) in pv.iter().enumerate() {
                        // SAFETY: AVX2 is enabled here.
                        let (m, w) = unsafe { (lanes(&k[2 * q]), lanes(&k[2 * q + 1])) };
                        acc =
                            _mm256_add_epi16(acc, _mm256_maddubs_epi16(_mm256_and_si256(*v, m), w));
                    }
                    if !last {
                        // SAFETY: `Lanes` is 32 bytes aligned to 32.
                        unsafe { _mm256_store_si256(std::ptr::from_mut(part).cast(), acc) };
                        continue;
                    }
                    // The first neuron always takes the lead, or ties
                    // `i16::MIN` at index 0. `j` exceeds every index
                    // taken so far, so the larger of the two is `j`
                    // where this neuron wins and the index elsewhere.
                    let take = _mm256_cmpgt_epi16(acc, best);
                    best = _mm256_max_epi16(best, acc);
                    index = _mm256_max_epi16(index, _mm256_and_si256(take, j));
                    j = _mm256_add_epi16(j, one);
                }
            }
            let mut padded = [-1i16; 16];
            let rows = if rows.len() == 16 {
                rows
            } else {
                padded[..rows.len()].copy_from_slice(rows);
                &padded
            };
            // SAFETY: `rows` holds 16 lanes.
            let label = unsafe { _mm256_loadu_si256(rows.as_ptr().cast()) };
            // A hit lane is −1: subtracting it counts the hit.
            tally = _mm256_sub_epi16(tally, _mm256_cmpeq_epi16(index, label));
            // Empty the tally before a lane could pass `i16::MAX`.
            if c % (1 << 15) == (1 << 15) - 1 {
                hits += tally_sum(tally);
                tally = _mm256_setzero_si256();
            }
        }
        hits + tally_sum(tally)
    }

    /// The sum of a tally's 16 non-negative `i16` lanes.
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn tally_sum(tally: __m256i) -> usize {
        let mut sums = [0i32; 8];
        let pairs = _mm256_madd_epi16(tally, _mm256_set1_epi16(1));
        // SAFETY: `sums` is 32 bytes.
        unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), pairs) };
        sums.iter().map(|&s| s as usize).sum()
    }

    /// Dispatch one neuron's accumulation to the widest available ISA.
    /// Precondition (checked by the caller): `fits_i32(neuron)`.
    pub(super) fn accumulate<C: AsRef<[u8]>>(
        neuron: &AxNeuron,
        inputs: &[C],
        samples: usize,
        acc: &mut Vec<i32>,
    ) {
        assert_eq!(
            inputs.len(),
            neuron.weights.len(),
            "input column count mismatch"
        );
        acc.clear();
        acc.resize(samples, neuron.bias);
        if has_avx2() {
            // SAFETY: AVX2 confirmed present by `has_avx2`; the
            // target-feature function only requires that.
            unsafe { neuron_avx2(neuron, inputs, acc) };
            return;
        }
        for (w, col) in neuron.weights.iter().zip(inputs) {
            if w.mask == 0 {
                continue;
            }
            let col = col.as_ref();
            assert_eq!(col.len(), samples, "column length mismatch");
            weight_sse2(
                col,
                acc,
                i32::from(w.mask & 0xFF),
                u32::from(w.shift),
                w.negative,
            );
        }
    }

    /// The whole neuron at 8 `i32` lanes per step (AVX2), active
    /// weights processed in blocks of [`BLOCK`]. Per sample the
    /// weights contribute in their original order, so the wrapping
    /// `i32` sums are bit-identical with the weight-outer scalar
    /// kernel's.
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn neuron_avx2<C: AsRef<[u8]>>(neuron: &AxNeuron, inputs: &[C], acc: &mut [i32]) {
        let samples = acc.len();
        let chunks = samples / 8;
        let mut cols: [&[u8]; BLOCK] = [&[]; BLOCK];
        let mut mask_v = [_mm256_setzero_si256(); BLOCK];
        let mut count_v = [_mm_setzero_si128(); BLOCK];
        let mut masks = [0i32; BLOCK];
        let mut shifts = [0u32; BLOCK];
        let mut negs = [false; BLOCK];
        let mut active = neuron
            .weights
            .iter()
            .zip(inputs)
            .filter(|(w, _)| w.mask != 0);
        loop {
            let mut len = 0;
            while len < BLOCK {
                let Some((w, col)) = active.next() else { break };
                let col = col.as_ref();
                assert_eq!(col.len(), samples, "column length mismatch");
                cols[len] = col;
                masks[len] = i32::from(w.mask & 0xFF);
                shifts[len] = u32::from(w.shift);
                negs[len] = w.negative;
                mask_v[len] = _mm256_set1_epi32(masks[len]);
                count_v[len] = _mm_cvtsi32_si128(shifts[len] as i32);
                len += 1;
            }
            if len == 0 {
                break;
            }
            for c in 0..chunks {
                // SAFETY: `c * 8 + 8 <= samples` bounds the unaligned
                // loads and the store; loadl reads exactly 8 bytes.
                unsafe {
                    let slot = acc.as_mut_ptr().add(c * 8).cast();
                    let mut cur = _mm256_loadu_si256(slot);
                    for j in 0..len {
                        let bytes: __m128i = _mm_loadl_epi64(cols[j].as_ptr().add(c * 8).cast());
                        let lanes = _mm256_cvtepu8_epi32(bytes);
                        let term = _mm256_sll_epi32(_mm256_and_si256(lanes, mask_v[j]), count_v[j]);
                        cur = if negs[j] {
                            _mm256_sub_epi32(cur, term)
                        } else {
                            _mm256_add_epi32(cur, term)
                        };
                    }
                    _mm256_storeu_si256(slot, cur);
                }
            }
            for j in 0..len {
                weight_tail(cols[j], acc, chunks * 8, masks[j], shifts[j], negs[j]);
            }
            if len < BLOCK {
                break;
            }
        }
    }

    /// One weight's pass at 4 `i32` lanes per step (SSE2 — the x86_64
    /// baseline, always safe to call).
    fn weight_sse2(col: &[u8], acc: &mut [i32], mask: i32, shift: u32, negative: bool) {
        let samples = acc.len();
        let chunks = samples / 8;
        // SAFETY: SSE2 is unconditionally part of the x86_64 baseline;
        // all pointer arithmetic stays below `chunks * 8 <= samples`.
        unsafe {
            let mask_v = _mm_set1_epi32(mask);
            let count = _mm_cvtsi32_si128(shift as i32);
            let zero = _mm_setzero_si128();
            for c in 0..chunks {
                let bytes = _mm_loadl_epi64(col.as_ptr().add(c * 8).cast());
                // u8 → u16 → two u32 quads, zero-extended.
                let w16 = _mm_unpacklo_epi8(bytes, zero);
                let lo = _mm_unpacklo_epi16(w16, zero);
                let hi = _mm_unpackhi_epi16(w16, zero);
                for (q, lanes) in [lo, hi].into_iter().enumerate() {
                    let term = _mm_sll_epi32(_mm_and_si128(lanes, mask_v), count);
                    let slot = acc.as_mut_ptr().add(c * 8 + q * 4).cast();
                    let cur = _mm_loadu_si128(slot);
                    let next = if negative {
                        _mm_sub_epi32(cur, term)
                    } else {
                        _mm_add_epi32(cur, term)
                    };
                    _mm_storeu_si128(slot, next);
                }
            }
        }
        weight_tail(col, acc, chunks * 8, mask, shift, negative);
    }

    /// Scalar tail past the last full vector chunk.
    fn weight_tail(
        col: &[u8],
        acc: &mut [i32],
        from: usize,
        mask: i32,
        shift: u32,
        negative: bool,
    ) {
        let mask8 = mask as u8;
        let tail = acc[from..].iter_mut().zip(&col[from..]);
        if negative {
            for (a, &x) in tail {
                *a -= i32::from(x & mask8) << shift;
            }
        } else {
            for (a, &x) in tail {
                *a += i32::from(x & mask8) << shift;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::axmlp::{AxLayer, AxWeight};
    use crate::columnar::accumulate_neuron_column_narrow_scalar;

    #[test]
    fn simd_matches_the_scalar_narrow_kernel_when_available() {
        let neuron = AxNeuron {
            weights: vec![
                AxWeight {
                    mask: 0b1011,
                    shift: 3,
                    negative: true,
                },
                AxWeight {
                    mask: 0xFF,
                    shift: 11,
                    negative: false,
                },
                AxWeight {
                    mask: 0,
                    shift: 1,
                    negative: false,
                },
            ],
            bias: -412,
        };
        for samples in [0usize, 1, 5, 8, 13, 64, 200] {
            let refs: Vec<Vec<u8>> = (0..3)
                .map(|f| {
                    (0..samples)
                        .map(|s| ((s * 3 + f * 17) % 256) as u8)
                        .collect()
                })
                .collect();
            let (mut want, mut got) = (Vec::new(), Vec::new());
            accumulate_neuron_column_narrow_scalar(&neuron, &refs, samples, &mut want);
            let ran = accumulate_neuron_column_simd(&neuron, &refs, samples, &mut got);
            assert_eq!(ran, available());
            if ran {
                assert_eq!(got, want, "samples {samples}");
            }
        }
    }

    #[test]
    fn vector_qrelu_matches_the_scalar_kernel_when_available() {
        let q = QReluCfg {
            out_bits: 5,
            shift: 2,
        };
        // 77 = 2 full 32-lane chunks + a 13-sample tail; values cover
        // negative, in-range and saturating accumulators.
        let acc: Vec<i32> = (0..77).map(|i| (i - 38) * 7 + (i % 5) * 1000).collect();
        let mut got = Vec::new();
        if qrelu_column_narrow_simd(q, &acc, &mut got) {
            assert!(available());
            let want: Vec<u8> = acc.iter().map(|&a| q.apply(i64::from(a))).collect();
            assert_eq!(got, want);
        }
        // Wider-than-u8 stages must decline (the scalar `as u8` wraps).
        let wide = QReluCfg {
            out_bits: 9,
            shift: 0,
        };
        assert!(!qrelu_column_narrow_simd(wide, &acc, &mut got));
    }

    #[test]
    fn vector_argmax_update_matches_the_scalar_sweep_when_available() {
        let cols: Vec<Vec<i32>> = (0..4)
            .map(|j| (0..27).map(|i| ((i * 7 + j * 13) % 29) - 11).collect())
            .collect();
        let mut value = cols[0].clone();
        let mut index = vec![0u32; 27];
        let mut ran = true;
        for (j, col) in cols.iter().enumerate().skip(1) {
            if !argmax_update_narrow(j as u32, col, &mut index, &mut value) {
                ran = false;
                break;
            }
        }
        if ran {
            assert!(available());
            let mut want_value = cols[0].clone();
            let mut want_index = vec![0u32; 27];
            for (j, col) in cols.iter().enumerate().skip(1) {
                for ((b, v), &x) in want_index.iter_mut().zip(&mut want_value).zip(col) {
                    if x > *v {
                        *b = j as u32;
                        *v = x;
                    }
                }
            }
            assert_eq!(value, want_value);
            assert_eq!(index, want_index, "ties must stay at the lowest index");
        }
    }

    fn w(mask: u16, shift: u8, negative: bool) -> AxWeight {
        AxWeight {
            mask,
            shift,
            negative,
        }
    }

    /// Neurons on the `i16` rung: a mixed-sign one at the paper's
    /// widths; ranges that end on the `i16` bounds with pair sums of
    /// ±32,640 (both activations 255, both multipliers ±64); a pair
    /// whose first weight is masked and whose second is live; and 40
    /// active weights.
    fn short_neurons() -> Vec<AxNeuron> {
        vec![
            AxNeuron {
                weights: vec![w(0x0F, 6, false), w(0, 3, true), w(0x0B, 4, true)],
                bias: -2048,
            },
            AxNeuron {
                weights: vec![w(0xFF, 6, false); 4],
                bias: -32768,
            },
            AxNeuron {
                weights: vec![w(0xFF, 6, false), w(0xFF, 6, false), w(0, 3, true)],
                bias: 127,
            },
            AxNeuron {
                weights: vec![w(0xFF, 6, true), w(0xFF, 6, true), w(0x0F, 0, false)],
                bias: 32512,
            },
            AxNeuron {
                weights: vec![w(0, 5, false), w(0xFF, 6, true), w(0x3C, 2, false)],
                bias: 100,
            },
            AxNeuron {
                weights: (0..40).map(|i| w(0x0F, i % 4, i % 3 == 0)).collect(),
                bias: 7,
            },
        ]
    }

    /// `fan_in` input columns of `samples` rows: all 255 in row 0, then
    /// a spread over the `u8` range.
    fn input_columns(fan_in: usize, samples: usize) -> Vec<Vec<u8>> {
        (0..fan_in)
            .map(|f| {
                (0..samples)
                    .map(|s| match s {
                        0 => 0xFF,
                        _ => ((s * 29 + f * 53) % 256) as u8,
                    })
                    .collect()
            })
            .collect()
    }

    /// `neuron`'s accumulators over `cols` on the scalar `i32` kernel.
    fn reference(neuron: &AxNeuron, cols: &[Vec<u8>], samples: usize) -> Vec<i32> {
        let mut acc = Vec::new();
        accumulate_neuron_column_narrow_scalar(neuron, cols, samples, &mut acc);
        acc
    }

    #[test]
    fn i16_kernels_match_the_i32_kernels_when_available() {
        if !i16_lanes() {
            return;
        }
        let mut scratch = PairScratch::default();
        for neuron in short_neurons() {
            // A twin with the same range whose pairs hold other weights.
            let mut twin = neuron.clone();
            twin.weights.reverse();
            let group = [neuron.clone(), twin];
            for shift in [0, 3, 8] {
                let q = QReluCfg { out_bits: 8, shift };
                let layer = AxLayer {
                    input_bits: 8,
                    neurons: group.to_vec(),
                    qrelu: Some(q),
                };
                assert!(crate::columnar::layer_fits_i16(&layer));
                for samples in [0usize, 1, 15, 16, 17, 33, 47, 200] {
                    let cols = input_columns(neuron.weights.len(), samples);
                    let mut pairs = Vec::new();
                    interleave_pairs(&cols, samples, &mut pairs);
                    let want: Vec<Vec<u8>> = group
                        .iter()
                        .map(|n| {
                            let acc = reference(n, &cols, samples);
                            acc.iter().map(|&a| q.apply(i64::from(a))).collect()
                        })
                        .collect();
                    {
                        let inputs = PairInputs {
                            count: cols.len(),
                            pairs: &pairs,
                        };
                        let mut outs = vec![vec![9; 3], vec![9; 40]];
                        hidden_columns_i16(
                            &group[..1],
                            inputs,
                            samples,
                            q,
                            &mut scratch,
                            &mut outs[..1],
                        );
                        assert_eq!(outs[0], want[0], "samples {samples}");
                        hidden_columns_i16(&group, inputs, samples, q, &mut scratch, &mut outs);
                        assert_eq!(outs, want, "samples {samples}");
                    }
                }
            }
        }
    }

    #[test]
    fn i16_argmax_matches_the_scalar_sweep_when_available() {
        if !i16_lanes() {
            return;
        }
        // Few distinct sums, so ties are common; output 4 duplicates
        // output 1.
        let mut outputs: Vec<AxNeuron> = (0..4)
            .map(|j| AxNeuron {
                weights: vec![
                    w(0x80, 6, j % 2 == 0),
                    w(0xC0, 5, j % 3 == 0),
                    w(if j == 2 { 0 } else { 0x80 }, 6, false),
                ],
                bias: (j % 3) * 8192 - 8192,
            })
            .collect();
        outputs.push(outputs[1].clone());
        let layer = AxLayer {
            input_bits: 8,
            neurons: outputs.clone(),
            qrelu: None,
        };
        assert!(crate::columnar::layer_fits_i16(&layer));
        let mut scratch = PairScratch::default();
        for samples in [0usize, 1, 15, 16, 17, 33, 47] {
            let cols = input_columns(3, samples);
            let mut pairs = Vec::new();
            interleave_pairs(&cols, samples, &mut pairs);
            let labels: Vec<usize> = (0..samples).map(|i| (i * 3) % 6).collect();
            let wide: Vec<Vec<i32>> = outputs
                .iter()
                .map(|n| reference(n, &cols, samples))
                .collect();
            let want =
                crate::columnar::argmax_hits(&wide, &labels, &mut Vec::new(), &mut Vec::new());
            let lanes: Vec<i16> = labels.iter().map(|&l| l as i16).collect();
            {
                let inputs = PairInputs {
                    count: cols.len(),
                    pairs: &pairs,
                };
                let hits = argmax_hits_i16(&outputs, inputs, &lanes, &mut scratch);
                assert_eq!(hits, want, "samples {samples}");
                let zeros = lanes.iter().filter(|&&l| l == 0).count();
                assert_eq!(argmax_hits_i16(&[], inputs, &lanes, &mut scratch), zeros);
            }
        }
    }

    #[test]
    fn simd_declines_non_narrow_neurons() {
        let extreme = AxNeuron {
            weights: vec![AxWeight {
                mask: 0xFF,
                shift: 40,
                negative: false,
            }],
            bias: 0,
        };
        let col = [0u8; 4];
        let mut acc = Vec::new();
        assert!(!accumulate_neuron_column_simd(
            &extreme,
            &[&col[..]],
            4,
            &mut acc
        ));
    }
}
