//! Explicit `std::arch` x86_64 kernels, runtime feature-detected: the
//! pair kernels of the forward pass, and the float trainer's softmax
//! `exp` (`expf_in_place`).
//!
//! [`hits_columns`](crate::columnar::hits_columns) runs a layer here
//! when its sums fit the kernels' lanes, and on the portable loops of
//! [`crate::columnar`] otherwise. The kernels multiply two weights at
//! once. The inputs travel byte-interleaved in pairs
//! (`interleave_pairs`): one 32-byte vector holds 16 rows of inputs `2p`
//! and `2p + 1`, `x₂ₚ[r]` and `x₂ₚ₊₁[r]` in `i16` lane `r`. A pair of
//! weights costs one AND with the pair's two masks, one `vpmaddubsw`
//! (the data is the unsigned operand) by the pair's multipliers `±2^k`
//! as `i8` (0 for a masked weight), and one add. A pair is skipped only
//! when both of its masks are 0. Each product is at most 255 · 64, so a
//! pair sum stays within ±32,640 and the multiply never saturates; the
//! `i8` multiplier is why every live weight must shift by at most 6.
//! The dataset's features come interleaved once
//! ([`ColumnMatrix`](crate::columnar::ColumnMatrix) keeps their pairs);
//! hidden activations stay one `u8` column per neuron, and a pass
//! interleaves a hidden layer's columns (SSE2 `punpcklbw` /
//! `punpckhbw`) once before the next layer reads them.
//!
//! The sums run on the narrowest lanes that hold every value each
//! accumulator can take, `[bias − Σneg, bias + Σpos]`:
//!
//! * **`i16`, one vector of 16 rows**, when every range lies inside
//!   `i16` ([`layer_fits_i16`](crate::columnar::layer_fits_i16)). The
//!   pair sums add as they come; every partial sum lies inside the
//!   neuron's range. A hidden layer runs two neurons per stripe pass,
//!   sharing each pair load, and QReLU-packs each straight to its `u8`
//!   column (`hidden_columns_i16`). Every hidden neuron the paper's
//!   genomes encode fits.
//! * **`i32`, two vectors of 8 rows**, for an argmax layer whose ranges
//!   lie inside `i32`. A pair sum is exact in `i16`, so sign extension
//!   widens it: the stripe's even rows are the low halves of its `i32`
//!   lanes (`srai(slli(s, 16), 16)`), its odd rows the high halves
//!   (`srai(s, 16)`). (`vpmaddwd` by ones would add each even row to the
//!   odd row after it.)
//!
//! The argmax layer is one pass per 16-row stripe, one body at both
//! widths (`argmax_hits_pairs`): it loads the stripe's pair vectors
//! once, up to 4 in registers (a wider layer takes them in blocks,
//! keeping each neuron's partial sum between blocks), accumulates each
//! output neuron in registers, and keeps the running best value, its
//! index and the hit count in registers; no output column is stored. At
//! `i32` the best and its index are kept per half, and the indices pack
//! back into `i16` lanes for the label compare. The last, partial
//! stripe runs the same code on zero-padded pairs.
//!
//! The kernels need AVX2 ([`i16_lanes`]). Without it, on other
//! architectures, or with the `simd` cargo feature off, every layer
//! takes the portable `i32`/`i64` loops of [`crate::columnar`], which
//! are also the kernels' parity reference; so do hidden layers whose
//! ranges leave `i16`, layers with a shift above 6, and the robust
//! search's perturbed accumulators.
//!
//! The softmax `exp` runs [`pe_arith::math::expf`] on 4 `f64` lanes per
//! step where the host has AVX2 and FMA: every lane performs the scalar
//! port's IEEE operations in its order (the fused multiply-adds as
//! `vfmadd`, the table lookup as a gather), so it returns the same bits.
//! Elsewhere it runs the scalar port.

use crate::axmlp::AxNeuron;
use crate::quant::QReluCfg;

/// Whether a vector QReLU pack reproduces `q`'s scalar saturation:
/// `out_bits <= 8` (the scalar `as u8` would wrap a wider stage, where
/// the pack saturates) and `shift < 32`.
#[must_use]
pub(crate) fn packs_to_u8(q: QReluCfg) -> bool {
    q.out_bits <= 8 && q.shift < 32
}

/// Whether the pair kernels run on this host: the `simd` feature built
/// on x86_64 and AVX2 detected at runtime. Where this is `false`,
/// [`hits_columns`](crate::columnar::hits_columns) runs every layer on
/// the portable loops.
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

/// `x ↦ e^x` for every value in place, bit for bit as
/// [`pe_arith::math::expf`] computes it: 4 lanes per step where the
/// `simd` feature is built on x86_64 and the host has AVX2 and FMA, the
/// scalar port elsewhere.
pub(crate) fn expf_in_place(values: &mut [f32]) {
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    if x86::has_avx2_fma() {
        x86::expf(values);
        return;
    }
    for v in values {
        *v = pe_arith::math::expf(*v);
    }
}

/// The widest weight shift the pair kernels multiply by: `±2^6` is the
/// largest power of two an `i8` multiplier holds both signs of.
pub(crate) const MAX_PAIR_SHIFT: u8 = 6;

/// The lanes a pair kernel sums a layer on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PairWidth {
    /// One vector of 16 `i16` rows: every accumulator's range lies
    /// inside `i16`.
    I16,
    /// Two vectors of 8 `i32` rows: every range lies inside `i32`.
    /// Argmax layers only.
    I32,
}

/// 32 bytes aligned for one vector load: a mask, multiplier, bias or
/// partial sum repeated over (or held in) the lanes of one vector.
#[derive(Debug, Clone, Copy, Default)]
#[repr(C, align(32))]
pub(crate) struct Lanes([u64; 4]);

impl Lanes {
    /// `lane` in every `i16` lane.
    #[inline]
    fn splat(lane: u16) -> Self {
        Self([u64::from(lane) * 0x0001_0001_0001_0001; 4])
    }

    /// `bias` in every lane of `width`.
    fn bias(bias: i32, width: PairWidth) -> Self {
        match width {
            PairWidth::I16 => Self::splat(bias as u16),
            PairWidth::I32 => Self([u64::from(bias as u32) * 0x0000_0001_0000_0001; 4]),
        }
    }
}

/// Interleave `cols` (each `samples` rows) into `out` in the layout the
/// pair kernels load, 16-row stripe by stripe: with `P` pairs, pair `p`
/// of stripe `c` is the 32 bytes at `32 · (c · P + p)`, inputs `2p` and
/// `2p + 1` of each of the stripe's rows in turn. Zeros stand in for
/// the second input of an odd count's last pair and for the rows past
/// the last in the last stripe.
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

/// The inputs of a pair-kernel layer: `count` inputs, interleaved in
/// pairs as [`interleave_pairs`] lays them out.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PairInputs<'a> {
    /// How many inputs the pairs hold.
    pub(crate) count: usize,
    /// The interleaved stripes.
    pub(crate) pairs: &'a [u8],
}

/// The reusable buffers of the pair kernels: the terms one call
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
    /// The argmax layer's biases, two vectors per output neuron (the
    /// second read only on `i32` lanes, where the sums take two).
    biases: Vec<[Lanes; 2]>,
    /// The argmax layer's partial sums between blocks of pairs, laid out
    /// as its biases.
    partial: Vec<[Lanes; 2]>,
}

impl PairScratch {
    /// Append the argmax layer's constants at `width`: for each block of
    /// `block` pairs, each neuron's mask and multiplier pairs for each
    /// pair of the block (zeros past the last pair); then each neuron's
    /// bias, and room for its partial sum.
    fn push_outputs(
        &mut self,
        neurons: &[AxNeuron],
        inputs: usize,
        block: usize,
        width: PairWidth,
    ) {
        let pairs = inputs.div_ceil(2);
        for b in 0..pairs.div_ceil(block).max(1) {
            for n in neurons {
                for pair in b * block..(b + 1) * block {
                    let (mask, mult) = pair_lanes(n, pair);
                    self.consts.push(Lanes::splat(mask));
                    self.consts.push(Lanes::splat(mult));
                }
            }
        }
        for n in neurons {
            self.biases.push([Lanes::bias(n.bias, width); 2]);
        }
        self.partial.resize(neurons.len(), Default::default());
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

/// Check the shape a pair kernel reads and start a call: `neurons`
/// weigh every input and the pairs hold every stripe of `samples` rows.
fn start(scratch: &mut PairScratch, neurons: &[AxNeuron], inputs: PairInputs<'_>, samples: usize) {
    assert!(i16_lanes(), "the pair kernels need AVX2");
    for n in neurons {
        assert_eq!(n.weights.len(), inputs.count, "input count mismatch");
    }
    let want = 32 * inputs.count.div_ceil(2) * samples.div_ceil(16);
    assert_eq!(inputs.pairs.len(), want, "input pair length mismatch");
    scratch.offsets.clear();
    scratch.consts.clear();
    scratch.biases.clear();
}

/// Hidden columns on `i16` lanes: accumulate `neurons` (one or two,
/// sharing each input load) over `inputs`, 16 samples per step, and
/// QReLU-pack each straight into its `u8` column of `outs`, `samples`
/// long. Bit-exact with the portable `i32` loop's columns.
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

/// Rows whose argmax over `neurons`' accumulators, summed on `width`'s
/// lanes, equals their `i16` label: one pass per 16-row stripe loads
/// the stripe's pair vectors once, accumulates each output neuron in
/// registers, and keeps the running best value, its index and the hit
/// count in registers. A layer over more than 4 input pairs takes them
/// in blocks, keeping each neuron's partial sum between blocks. Ties go
/// to the lowest index (strictly greater wins), as in
/// [`argmax_hits`](crate::columnar::argmax_hits); no neurons predict
/// class 0.
///
/// # Panics
///
/// Panics without [`i16_lanes`], with more than 2^15 neurons (their
/// indices must fit `i16` lanes), if a neuron's fan-in differs from the
/// input count, or if the pairs do not hold `labels.len()` rows. Every
/// neuron's range must lie inside `width`'s lanes and every live weight
/// shift by at most 6, as the forward pass's routing checks.
#[must_use]
pub(crate) fn argmax_hits_pairs(
    neurons: &[AxNeuron],
    inputs: PairInputs<'_>,
    labels: &[i16],
    width: PairWidth,
    scratch: &mut PairScratch,
) -> usize {
    assert!(neurons.len() <= 1 << 15, "class indices must fit i16 lanes");
    if neurons.is_empty() {
        return labels.iter().filter(|&&l| l == 0).count();
    }
    start(scratch, neurons, inputs, labels.len());
    let block = argmax_width(inputs.count.div_ceil(2));
    scratch.push_outputs(neurons, inputs.count, block, width);
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        x86::argmax_hits(inputs, labels, width, scratch)
    }
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    {
        unreachable!("no pair kernels without the x86_64 `simd` build")
    }
}

#[cfg(all(feature = "simd", target_arch = "x86_64"))]
#[allow(unsafe_code)]
mod x86 {
    //! The x86_64 lowering. `unsafe` is confined to this module: the
    //! pointer loads and stores, the table gather, and the
    //! `#[target_feature]` call boundary (SSE2 is part of the x86_64
    //! baseline; AVX2 and FMA are gated by `is_x86_feature_detected!`).

    use std::arch::x86_64::{
        __m128, __m256i, _mm256_add_epi16, _mm256_add_epi32, _mm256_add_epi64, _mm256_and_si256,
        _mm256_castpd_si256, _mm256_castsi256_pd, _mm256_castsi256_si128, _mm256_cmpeq_epi16,
        _mm256_cmpgt_epi16, _mm256_cmpgt_epi32, _mm256_cvtpd_ps, _mm256_cvtps_pd,
        _mm256_extracti128_si256, _mm256_fmadd_pd, _mm256_fmsub_pd, _mm256_i64gather_epi64,
        _mm256_load_si256, _mm256_loadu_si256, _mm256_madd_epi16, _mm256_maddubs_epi16,
        _mm256_max_epi16, _mm256_max_epi32, _mm256_min_epi16, _mm256_mul_pd, _mm256_or_si256,
        _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_epi64x, _mm256_set1_pd,
        _mm256_setzero_si256, _mm256_slli_epi32, _mm256_slli_epi64, _mm256_sra_epi16,
        _mm256_srai_epi32, _mm256_store_si256, _mm256_storeu_si256, _mm256_sub_epi16,
        _mm256_sub_pd, _mm_add_ps, _mm_andnot_ps, _mm_blendv_ps, _mm_cmpgt_ps, _mm_cmplt_ps,
        _mm_cmpunord_ps, _mm_cvtsi32_si128, _mm_loadu_ps, _mm_loadu_si128, _mm_packus_epi16,
        _mm_set1_ps, _mm_storeu_ps, _mm_storeu_si128, _mm_unpackhi_epi8, _mm_unpacklo_epi8,
    };
    use std::sync::OnceLock;

    use pe_arith::math::{
        EXPF_INV_LN2_N, EXPF_OVERFLOW, EXPF_POLY, EXPF_SHIFT, EXPF_TABLE, EXPF_UNDERFLOW,
    };

    use super::{Lanes, PairInputs, PairScratch, PairWidth};
    use crate::axmlp::AxNeuron;
    use crate::quant::QReluCfg;

    /// Runtime AVX2 detection, probed once per process.
    pub(super) fn has_avx2() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }

    /// Runtime AVX2 and FMA detection, probed once per process.
    pub(super) fn has_avx2_fma() -> bool {
        static AVX2_FMA: OnceLock<bool> = OnceLock::new();
        *AVX2_FMA.get_or_init(|| has_avx2() && std::is_x86_feature_detected!("fma"))
    }

    /// [`expf_in_place`](super::expf_in_place) on AVX2 and FMA.
    pub(super) fn expf(values: &mut [f32]) {
        assert!(has_avx2_fma(), "the exp kernel needs AVX2 and FMA");
        // SAFETY: AVX2 and FMA were confirmed above.
        unsafe { expf_avx2(values) }
    }

    /// Four values per step; the last, partial step runs on a
    /// zero-padded copy.
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn expf_avx2(values: &mut [f32]) {
        let mut fours = values.chunks_exact_mut(4);
        for four in &mut fours {
            // SAFETY: `four` holds 4 values.
            unsafe { _mm_storeu_ps(four.as_mut_ptr(), expf4(_mm_loadu_ps(four.as_ptr()))) };
        }
        let rest = fours.into_remainder();
        if !rest.is_empty() {
            let mut padded = [0.0f32; 4];
            padded[..rest.len()].copy_from_slice(rest);
            // SAFETY: `padded` holds 4 values.
            unsafe { _mm_storeu_ps(padded.as_mut_ptr(), expf4(_mm_loadu_ps(padded.as_ptr()))) };
            rest.copy_from_slice(&padded[..rest.len()]);
        }
    }

    /// [`pe_arith::math::expf`] of each lane: the scalar port's
    /// operations in its order, on `f64` lanes, then its special cases
    /// by blending (a NaN lane returns `x + x`, a lane above the
    /// overflow bound +∞, a lane below the underflow bound +0).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    fn expf4(x: __m128) -> __m128 {
        let [c0, c1, c2] = EXPF_POLY;
        let (c0, c1, c2) = (_mm256_set1_pd(c0), _mm256_set1_pd(c1), _mm256_set1_pd(c2));
        let (inv_ln2_n, shift) = (_mm256_set1_pd(EXPF_INV_LN2_N), _mm256_set1_pd(EXPF_SHIFT));
        let xd = _mm256_cvtps_pd(x);
        let kd = _mm256_fmadd_pd(xd, inv_ln2_n, shift);
        let ki = _mm256_castpd_si256(kd);
        let kd = _mm256_sub_pd(kd, shift);
        // `xd · inv_ln2_n − kd` in one rounding, as `mul_add(.., -kd)`.
        let r = _mm256_fmsub_pd(xd, inv_ln2_n, kd);
        let index = _mm256_and_si256(ki, _mm256_set1_epi64x(31));
        // SAFETY: the table is a static of 32 entries, and every index
        // is below 32.
        let t = unsafe { _mm256_i64gather_epi64::<8>(EXPF_TABLE.as_ptr().cast(), index) };
        let s = _mm256_castsi256_pd(_mm256_add_epi64(t, _mm256_slli_epi64::<47>(ki)));
        let z = _mm256_fmadd_pd(c0, r, c1);
        let r2 = _mm256_mul_pd(r, r);
        let y = _mm256_fmadd_pd(c2, r, _mm256_set1_pd(1.0));
        let y = _mm256_fmadd_pd(z, r2, y);
        let y = _mm256_cvtpd_ps(_mm256_mul_pd(y, s));
        let over = _mm_cmpgt_ps(x, _mm_set1_ps(EXPF_OVERFLOW));
        let y = _mm_blendv_ps(y, _mm_set1_ps(f32::INFINITY), over);
        let y = _mm_andnot_ps(_mm_cmplt_ps(x, _mm_set1_ps(EXPF_UNDERFLOW)), y);
        _mm_blendv_ps(y, _mm_add_ps(x, x), _mm_cmpunord_ps(x, x))
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

    /// One constant's lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn lanes(l: &Lanes) -> __m256i {
        // SAFETY: `Lanes` is 32 bytes aligned to 32.
        unsafe { _mm256_load_si256(std::ptr::from_ref(l).cast()) }
    }

    /// Store `v` in `l`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn set_lanes(l: &mut Lanes, v: __m256i) {
        // SAFETY: `Lanes` is 32 bytes aligned to 32.
        unsafe { _mm256_store_si256(std::ptr::from_mut(l).cast(), v) }
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
        assert!(has_avx2(), "the pair kernels need AVX2");
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
                    let (m, w) = (lanes(&k[2 * n]), lanes(&k[2 * n + 1]));
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

    /// The hits of [`argmax_hits_pairs`](super::argmax_hits_pairs), over
    /// the constants in `scratch`. Preconditions (checked by the
    /// caller): at least one neuron, the pairs holding every stripe of
    /// the labels' rows.
    pub(super) fn argmax_hits(
        inputs: PairInputs<'_>,
        labels: &[i16],
        width: PairWidth,
        scratch: &mut PairScratch,
    ) -> usize {
        assert!(has_avx2(), "the pair kernels need AVX2");
        use PairWidth::{I16, I32};
        // SAFETY: AVX2 was confirmed above.
        unsafe {
            match (width, super::argmax_width(inputs.count.div_ceil(2))) {
                (I16, 1) => argmax_avx2::<false, 1>(inputs, scratch, labels),
                (I16, 2) => argmax_avx2::<false, 2>(inputs, scratch, labels),
                (I16, 3) => argmax_avx2::<false, 3>(inputs, scratch, labels),
                (I16, 4) => argmax_avx2::<false, 4>(inputs, scratch, labels),
                (I32, 1) => argmax_avx2::<true, 1>(inputs, scratch, labels),
                (I32, 2) => argmax_avx2::<true, 2>(inputs, scratch, labels),
                (I32, 3) => argmax_avx2::<true, 3>(inputs, scratch, labels),
                (I32, 4) => argmax_avx2::<true, 4>(inputs, scratch, labels),
                _ => unreachable!("blocks hold one to four pairs"),
            }
        }
    }

    /// The most stripes a tally counts before it is emptied: a lane
    /// gains at most one hit per stripe, so none passes `i16::MAX`.
    const TALLY_STRIPES: usize = i16::MAX as usize;

    /// Each stripe: for each block of `W` pairs, load the block's pair
    /// vectors once and run every output neuron's `W` pairs in
    /// registers, from its bias or its partial sum; after the last block
    /// fold each neuron into the running best (strictly greater wins, so
    /// ties stay at the lowest index), then tally per lane the rows
    /// whose best index equals the label. The last stripe's rows past
    /// the labels carry the label −1, which no index equals. `WIDE` sums
    /// on `i32` lanes ([`Rows`]).
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn argmax_avx2<const WIDE: bool, const W: usize>(
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
        let (lowest, one) = (Rows::<WIDE>::lowest(), Rows::<WIDE>::splat(1));
        let (mut hits, mut tally, mut room) = (0, _mm256_setzero_si256(), TALLY_STRIPES);
        for (c, rows) in labels.chunks(16).enumerate() {
            let stripe = &inputs.pairs[32 * pairs * c..32 * pairs * (c + 1)];
            let mut best = lowest;
            let mut index = Rows::<WIDE>::splat(0);
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
                let sums = biases.iter().zip(partial.iter_mut());
                for ((bias, part), k) in sums.zip(&mut neurons) {
                    let mut acc = Rows::<WIDE>::load(if block == 0 { bias } else { part });
                    for (q, v) in pv.iter().enumerate() {
                        let (m, w) = (lanes(&k[2 * q]), lanes(&k[2 * q + 1]));
                        acc = acc.add_pair(_mm256_maddubs_epi16(_mm256_and_si256(*v, m), w));
                    }
                    if !last {
                        acc.store(part);
                        continue;
                    }
                    // The first neuron always takes the lead, or ties
                    // the lowest value at index 0. `j` exceeds every
                    // index taken so far, so the larger of the two is
                    // `j` where this neuron wins and the index
                    // elsewhere.
                    let take = acc.gt(best);
                    best = best.max(acc);
                    index = index.max(take.and(j));
                    j = j.add(one);
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
            tally = _mm256_sub_epi16(tally, _mm256_cmpeq_epi16(index.row_lanes(), label));
            room -= 1;
            if room == 0 {
                hits += tally_sum(tally);
                (tally, room) = (_mm256_setzero_si256(), TALLY_STRIPES);
            }
        }
        hits + tally_sum(tally)
    }

    /// One value per row of a 16-row stripe (an output neuron's sums,
    /// the running best or its index): one vector of 16 `i16` lanes, or
    /// (`WIDE`) two vectors of 8 `i32` lanes, the stripe's even rows and
    /// its odd rows. Where not `WIDE`, the second vector is unused.
    #[derive(Clone, Copy)]
    struct Rows<const WIDE: bool>([__m256i; 2]);

    impl<const WIDE: bool> Rows<WIDE> {
        /// How many vectors hold the rows.
        const HALVES: usize = if WIDE { 2 } else { 1 };

        /// `value` in every lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn splat(value: i16) -> Self {
            let v = if WIDE {
                _mm256_set1_epi32(value.into())
            } else {
                _mm256_set1_epi16(value)
            };
            Self([v; 2])
        }

        /// The lane type's least value in every lane.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn lowest() -> Self {
            Self(
                [if WIDE {
                    _mm256_set1_epi32(i32::MIN)
                } else {
                    _mm256_set1_epi16(i16::MIN)
                }; 2],
            )
        }

        /// The rows held in `l`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(l: &[Lanes; 2]) -> Self {
            Self([lanes(&l[0]), lanes(&l[1])])
        }

        /// Store the rows in `l`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn store(self, l: &mut [Lanes; 2]) {
            for (l, v) in l.iter_mut().zip(self.0).take(Self::HALVES) {
                set_lanes(l, v);
            }
        }

        /// Add a pair sum's 16 `i16` row lanes. Where `WIDE`, sign
        /// extension widens the sum, exact in `i16`: the even rows are
        /// the low halves of its `i32` lanes, the odd rows the high
        /// halves.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn add_pair(self, sum: __m256i) -> Self {
            let [a, b] = self.0;
            if WIDE {
                let even = _mm256_srai_epi32::<16>(_mm256_slli_epi32::<16>(sum));
                let odd = _mm256_srai_epi32::<16>(sum);
                Self([_mm256_add_epi32(a, even), _mm256_add_epi32(b, odd)])
            } else {
                Self([_mm256_add_epi16(a, sum), b])
            }
        }

        /// Lane-wise `self + other`.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn add(self, other: Self) -> Self {
            let ([a, b], [c, d]) = (self.0, other.0);
            Self(if WIDE {
                [_mm256_add_epi32(a, c), _mm256_add_epi32(b, d)]
            } else {
                [_mm256_add_epi16(a, c), b]
            })
        }

        /// Lane-wise `self > other`, all ones where it holds.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn gt(self, other: Self) -> Self {
            let ([a, b], [c, d]) = (self.0, other.0);
            Self(if WIDE {
                [_mm256_cmpgt_epi32(a, c), _mm256_cmpgt_epi32(b, d)]
            } else {
                [_mm256_cmpgt_epi16(a, c), b]
            })
        }

        /// Lane-wise maximum.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn max(self, other: Self) -> Self {
            let ([a, b], [c, d]) = (self.0, other.0);
            Self(if WIDE {
                [_mm256_max_epi32(a, c), _mm256_max_epi32(b, d)]
            } else {
                [_mm256_max_epi16(a, c), b]
            })
        }

        /// Lane-wise AND.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn and(self, other: Self) -> Self {
            let ([a, b], [c, d]) = (self.0, other.0);
            Self([_mm256_and_si256(a, c), _mm256_and_si256(b, d)])
        }

        /// The rows as 16 `i16` lanes in row order. Where `WIDE`, each
        /// `i32` lane's two rows pack back into its halves; the values
        /// are class indices, below 2^15, so an even row's fills only
        /// the low half.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn row_lanes(self) -> __m256i {
            let [even, odd] = self.0;
            if WIDE {
                _mm256_or_si256(even, _mm256_slli_epi32::<16>(odd))
            } else {
                even
            }
        }
    }

    /// The sum of a tally's 16 non-negative `i16` lanes.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn tally_sum(tally: __m256i) -> usize {
        let mut sums = [0i32; 8];
        let pairs = _mm256_madd_epi16(tally, _mm256_set1_epi16(1));
        // SAFETY: `sums` is 32 bytes.
        unsafe { _mm256_storeu_si256(sums.as_mut_ptr().cast(), pairs) };
        sums.iter().map(|&s| s as usize).sum()
    }
}

#[cfg(test)]
mod tests {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    use super::*;
    use crate::axmlp::{AxLayer, AxWeight};
    use crate::columnar::{accumulate_neuron_column, accumulate_neuron_column_narrow_scalar};

    fn w(mask: u16, shift: u8, negative: bool) -> AxWeight {
        AxWeight {
            mask,
            shift,
            negative,
        }
    }

    /// Neurons on `i16` lanes: a mixed-sign one at the paper's widths;
    /// ranges that end on the `i16` bounds with pair sums of ±32,640
    /// (both activations 255, both multipliers ±64); a pair whose first
    /// weight is masked and whose second is live; and 40 active weights.
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

    /// `fan_in` input columns of `samples` rows: all 255 in row 0, all 0
    /// in row 1, then a spread over the `u8` range.
    fn input_columns(fan_in: usize, samples: usize) -> Vec<Vec<u8>> {
        (0..fan_in)
            .map(|f| {
                (0..samples)
                    .map(|s| match s {
                        0 => 0xFF,
                        1 => 0,
                        _ => ((s * 29 + f * 53) % 256) as u8,
                    })
                    .collect()
            })
            .collect()
    }

    /// `neuron`'s accumulators over `cols` on the portable `i32` loop.
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

    /// The argmax kernel at `width` over `outputs`, at every row count
    /// around the 16-row stripes: it hits every row labelled with the
    /// predictions of the `i64` loop's columns (ties to the lowest
    /// index), no row labelled one class off, and as many rows of a
    /// mixed labelling as the portable sweep.
    fn assert_argmax_matches_the_sweep(outputs: &[AxNeuron], width: PairWidth, what: &str) {
        let mut scratch = PairScratch::default();
        let fan_in = outputs[0].weights.len();
        for samples in [0usize, 1, 15, 16, 17, 33, 47, 2001] {
            let cols = input_columns(fan_in, samples);
            let mut pairs = Vec::new();
            interleave_pairs(&cols, samples, &mut pairs);
            let inputs = PairInputs {
                count: cols.len(),
                pairs: &pairs,
            };
            let mut hits =
                |labels: &[i16]| argmax_hits_pairs(outputs, inputs, labels, width, &mut scratch);
            let wide: Vec<Vec<i64>> = outputs
                .iter()
                .map(|n| {
                    let mut acc = Vec::new();
                    accumulate_neuron_column(n, &cols, samples, &mut acc, &mut Vec::new());
                    acc
                })
                .collect();
            let want: Vec<i16> = crate::columnar::argmax_columns(&wide, samples)
                .into_iter()
                .map(|c| c as i16)
                .collect();
            assert_eq!(hits(&want), samples, "{what}, {samples} rows");
            let off: Vec<i16> = want.iter().map(|&l| l + 1).collect();
            assert_eq!(hits(&off), 0, "{what}, {samples} rows");
            let mixed: Vec<usize> = (0..samples).map(|i| (i * 3) % 6).collect();
            let sweep =
                crate::columnar::argmax_hits(&wide, &mixed, &mut Vec::new(), &mut Vec::new());
            let lanes: Vec<i16> = mixed.iter().map(|&l| l as i16).collect();
            assert_eq!(hits(&lanes), sweep, "{what}, {samples} rows");
            let zeros = lanes.iter().filter(|&&l| l == 0).count();
            assert_eq!(
                argmax_hits_pairs(&[], inputs, &lanes, width, &mut scratch),
                zeros
            );
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
        assert_argmax_matches_the_sweep(&outputs, PairWidth::I16, "i16");
    }

    /// Argmax layers whose ranges leave `i16`: on the `i32` bounds, and
    /// random ones.
    ///
    /// Over `fan_in` inputs of full masks at shift 6 (`S = 16,320 ·
    /// fan_in`, pair sums of ±32,640 where both inputs are 255): `top`
    /// reaches `i32::MAX` with `|bias| + S = i32::MAX`, `fall` (bias
    /// `i32::MAX`, negative) tops out there too, and a copy of `top`
    /// ties it; `bottom` reaches `−i32::MAX` with `|bias| + S =
    /// i32::MAX`, `floor` reaches `i32::MIN` and sits one below `bottom`
    /// on every row, and `rise` starts at `−i32::MAX`. The random layers
    /// draw masks, shifts up to 6 and signs, with biases of up to ±2^17,
    /// and repeat one neuron, so ties occur.
    fn i32_layers() -> Vec<Vec<AxNeuron>> {
        let mut rng = StdRng::seed_from_u64(0x132);
        let mut layers = Vec::new();
        for (fan_in, classes) in [(1, 2), (2, 3), (3, 5), (8, 17), (9, 20), (11, 4)] {
            let span = 16_320 * fan_in as i32;
            let all = |negative: bool, bias: i32| AxNeuron {
                weights: vec![w(0xFF, 6, negative); fan_in],
                bias,
            };
            let top = all(false, i32::MAX - span);
            layers.push(vec![top.clone(), all(true, i32::MAX), top]);
            let bottom = all(true, -(i32::MAX - span));
            let floor = all(true, i32::MIN + span);
            layers.push(vec![bottom, floor, all(false, -i32::MAX)]);
            let mut random: Vec<AxNeuron> = (0..classes)
                .map(|_| AxNeuron {
                    weights: (0..fan_in)
                        .map(|_| w(rng.gen_range(0..=0xFF), rng.gen_range(0..=6), rng.gen()))
                        .collect(),
                    bias: rng.gen_range(-(1 << 17)..=1 << 17),
                })
                .collect();
            random.push(random[classes / 2].clone());
            random[0].bias = 1 << 16;
            layers.push(random);
        }
        layers
    }

    #[test]
    fn i32_argmax_matches_the_scalar_sweep_when_available() {
        if !i16_lanes() {
            return;
        }
        for outputs in i32_layers() {
            let layer = AxLayer {
                input_bits: 8,
                neurons: outputs.clone(),
                qrelu: None,
            };
            assert!(!crate::columnar::layer_fits_i16(&layer));
            let what = format!(
                "{} inputs, {} classes, biases {:?}",
                outputs[0].weights.len(),
                outputs.len(),
                outputs.iter().map(|n| n.bias).collect::<Vec<_>>()
            );
            assert_argmax_matches_the_sweep(&outputs, PairWidth::I32, &what);
        }
    }

    /// `values` through [`expf_in_place`] equal the scalar port's
    /// answers bit for bit.
    fn assert_expf_lanes_match(values: &[f32]) {
        let mut lanes = values.to_vec();
        expf_in_place(&mut lanes);
        for (&x, &y) in values.iter().zip(&lanes) {
            let want = pe_arith::math::expf(x).to_bits();
            assert_eq!(y.to_bits(), want, "expf({x:e}) [{:#010x}]", x.to_bits());
        }
    }

    /// Every 4099th `f32` bit pattern: both signs, subnormals, both
    /// bounds' neighbourhoods, infinities and NaNs.
    #[test]
    fn expf_lanes_match_the_scalar_port_on_a_stride_of_every_f32() {
        let patterns: Vec<f32> = (0..=u32::MAX).step_by(4099).map(f32::from_bits).collect();
        assert_expf_lanes_match(&patterns);
    }

    /// Every length up to a batch and a block past it, from every
    /// offset in a step of 4: the full steps and the zero-padded last
    /// one, with special values in every lane position.
    #[test]
    fn expf_lanes_match_the_scalar_port_at_every_batch_length() {
        let special = [
            f32::NAN,
            f32::NEG_INFINITY,
            f32::INFINITY,
            -0.0,
            89.0,
            f32::from_bits(0xc27c_65d9),
            f32::from_bits(0xc2cf_f1b4),
            f32::from_bits(0xc2cf_f1b5),
            f32::from_bits(0x42b1_7217),
            f32::from_bits(0x42b1_7218),
        ];
        let values: Vec<f32> = (0..41)
            .map(|i| special.get(i % 13).copied().unwrap_or(-0.37 * i as f32))
            .collect();
        for start in 0..4 {
            for end in start..=values.len() {
                assert_expf_lanes_match(&values[start..end]);
            }
        }
    }

    /// The exp kernel equals the scalar port on all 2^32 `f32` bit
    /// patterns. About 20-60 s in release mode, far longer in debug:
    /// `cargo test --release -p pe-mlp -- --ignored every_f32`.
    #[test]
    #[ignore = "all 2^32 inputs: run in release mode with --ignored"]
    fn expf_lanes_match_the_scalar_port_on_every_f32() {
        let mut patterns = vec![0.0f32; 1 << 20];
        for block in 0..1u32 << 12 {
            for (low, x) in patterns.iter_mut().enumerate() {
                *x = f32::from_bits(block << 20 | low as u32);
            }
            assert_expf_lanes_match(&patterns);
        }
    }

    /// A lane of the hit tally counts one hit per stripe: past 32,767
    /// stripes of hits it must have been emptied, at both widths.
    #[test]
    fn the_argmax_tally_counts_past_32767_stripes_of_hits() {
        if !i16_lanes() {
            return;
        }
        let mut scratch = PairScratch::default();
        for stripes in [32_767usize, 32_768, 32_769] {
            let rows = 16 * stripes;
            let mut pairs = Vec::new();
            interleave_pairs(&[vec![0u8; rows]], rows, &mut pairs);
            let inputs = PairInputs {
                count: 1,
                pairs: &pairs,
            };
            let labels = vec![0i16; rows];
            // Output 0 beats output 1 on every row.
            for (bias, width) in [(1, PairWidth::I16), (1 << 16, PairWidth::I32)] {
                let outputs = [
                    AxNeuron {
                        weights: vec![w(0xFF, 0, false)],
                        bias,
                    },
                    AxNeuron {
                        weights: vec![w(0, 0, false)],
                        bias: 0,
                    },
                ];
                let hits = argmax_hits_pairs(&outputs, inputs, &labels, width, &mut scratch);
                assert_eq!(hits, rows, "{width:?}, {stripes} stripes");
            }
        }
    }
}
