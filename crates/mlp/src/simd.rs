//! Explicit `std::arch` x86_64 column kernels, runtime
//! feature-detected.
//!
//! The scalar kernel in [`crate::columnar`] already auto-vectorizes
//! well, but the compiler must keep the `u8` widening, the AND and the
//! variable shift composable for any weight; writing the loop directly
//! against the ISA pins the exact instruction mix. Each neuron runs on
//! the narrowest lanes its accumulator range fits, a ladder
//! [`crate::columnar::hits_columns`] climbs per layer:
//!
//! * **`i16`, 16 samples per AVX2 step** (`hidden_column_i16`,
//!   `accumulate_i16`, `argmax_hits_i16`) when every value the
//!   accumulator can take, `[bias − Σneg, bias + Σpos]`, lies inside
//!   `i16` ([`fits_i16`](crate::columnar::fits_i16)): load 16 column
//!   bytes, widen them to `u16` lanes (`vpmovzxbw`), AND against the
//!   broadcast mask and multiply by the weight's signed power of two
//!   (`vpmullw` by `±2^k` is the shift and the sign at once), add. The
//!   sums wrap mod 2^16, so every final value inside the range is
//!   exact whatever the partial sums do. A hidden column is
//!   QReLU-packed straight to `u8`; an argmax layer's running best,
//!   its index and the hit count stay in registers. Needs AVX2
//!   ([`i16_lanes`]); without it the `i32` rung serves these neurons.
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

/// One hidden column on the `i16` rung: accumulate `neuron` over
/// `inputs`, 16 samples per step, and QReLU-pack every stripe straight
/// into `out` as `u8` activations. `acc` holds partial sums only for a
/// neuron with more active weights than one stripe pass keeps in
/// registers (8). Bit-exact with
/// [`hidden_column`](crate::columnar::hidden_column).
///
/// # Panics
///
/// Panics without [`i16_lanes`], if `inputs` and the weights disagree
/// in count, or if an active weight's column is not `samples` long.
/// The neuron must [`fits_i16`](crate::columnar::fits_i16) and `q` must
/// pack to `u8` (`out_bits <= 8`, `shift < 32`); debug builds check
/// both.
pub(crate) fn hidden_column_i16<C: AsRef<[u8]>>(
    neuron: &AxNeuron,
    inputs: &[C],
    samples: usize,
    q: QReluCfg,
    acc: &mut Vec<i16>,
    out: &mut Vec<u8>,
) {
    debug_assert!(packs_to_u8(q), "the QReLU must pack to u8");
    column_i16(neuron, inputs, samples, acc, Some((q, out)));
}

/// One accumulator column on the `i16` rung, 16 samples per step, into
/// `acc`. Bit-exact with
/// [`accumulate_neuron_column`](crate::columnar::accumulate_neuron_column).
///
/// # Panics
///
/// As [`hidden_column_i16`].
pub(crate) fn accumulate_i16<C: AsRef<[u8]>>(
    neuron: &AxNeuron,
    inputs: &[C],
    samples: usize,
    acc: &mut Vec<i16>,
) {
    column_i16(neuron, inputs, samples, acc, None);
}

fn column_i16<C: AsRef<[u8]>>(
    neuron: &AxNeuron,
    inputs: &[C],
    samples: usize,
    acc: &mut Vec<i16>,
    qrelu: Option<(QReluCfg, &mut Vec<u8>)>,
) {
    assert!(i16_lanes(), "the i16 kernels need AVX2");
    debug_assert!(
        crate::columnar::fits_i16(neuron),
        "the accumulator range must fit i16"
    );
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    x86::column_i16(neuron, inputs, samples, acc, qrelu);
    #[cfg(not(all(feature = "simd", target_arch = "x86_64")))]
    let _ = (neuron, inputs, samples, acc, qrelu);
}

/// Rows whose argmax over the `i16` columns equals their `i16` label:
/// one pass per 16-sample stripe keeps the running best value, its
/// index and the hit count in registers and stores nothing. Ties go to
/// the lowest index (strictly greater wins), as in
/// [`argmax_hits`](crate::columnar::argmax_hits); an empty column set
/// predicts class 0.
///
/// # Panics
///
/// Panics without [`i16_lanes`], with more than 2^15 columns (their
/// indices must fit `i16` lanes), or if a column's length differs from
/// `labels.len()`.
#[must_use]
pub(crate) fn argmax_hits_i16(columns: &[Vec<i16>], labels: &[i16]) -> usize {
    assert!(i16_lanes(), "the i16 kernels need AVX2");
    assert!(columns.len() <= 1 << 15, "class indices must fit i16 lanes");
    if columns.is_empty() {
        return labels.iter().filter(|&&l| l == 0).count();
    }
    #[cfg(all(feature = "simd", target_arch = "x86_64"))]
    {
        x86::argmax_hits_i16(columns, labels)
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
        __m128i, _mm256_add_epi16, _mm256_add_epi32, _mm256_and_si256, _mm256_blendv_epi8,
        _mm256_castsi256_si128, _mm256_cmpeq_epi16, _mm256_cmpgt_epi16, _mm256_cmpgt_epi32,
        _mm256_cvtepu8_epi16, _mm256_cvtepu8_epi32, _mm256_extracti128_si256, _mm256_loadu_si256,
        _mm256_max_epi16, _mm256_max_epi32, _mm256_min_epi16, _mm256_min_epi32,
        _mm256_movemask_epi8, _mm256_mullo_epi16, _mm256_packus_epi16, _mm256_packus_epi32,
        _mm256_permutevar8x32_epi32, _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set_epi32,
        _mm256_setzero_si256, _mm256_sll_epi32, _mm256_sra_epi16, _mm256_sra_epi32,
        _mm256_storeu_si256, _mm256_sub_epi32, _mm_add_epi32, _mm_and_si128, _mm_cvtsi32_si128,
        _mm_loadl_epi64, _mm_loadu_si128, _mm_packus_epi16, _mm_set1_epi32, _mm_setzero_si128,
        _mm_sll_epi32, _mm_storeu_si128, _mm_sub_epi32, _mm_unpackhi_epi16, _mm_unpacklo_epi16,
        _mm_unpacklo_epi8,
    };
    use std::sync::OnceLock;

    use crate::axmlp::AxNeuron;
    use crate::quant::QReluCfg;

    /// Runtime AVX2 detection, probed once per process.
    pub(super) fn has_avx2() -> bool {
        static AVX2: OnceLock<bool> = OnceLock::new();
        *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
    }

    /// How many weights one AVX2 stripe pass fuses, on either rung: the
    /// accumulator vector stays in a register across the whole block,
    /// so the per-weight accumulator load/store of a weight-outer loop
    /// is paid once per block instead of once per weight. On the `i16`
    /// rung, `hits_columns` over random networks of the five Table I
    /// topologies at 2000 rows ran faster with blocks of 8 than of 4,
    /// 12, 16 or 32, although a 21-input neuron then stores its partial
    /// sums twice.
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

    /// One neuron's column on 16 `i16` lanes per step: stored as `i16`
    /// accumulators in `acc` or, with `qrelu`, QReLU-packed into its
    /// `u8` column (`acc` then carries partial sums between blocks
    /// only). Preconditions (checked by the caller): `fits_i16(neuron)`
    /// and, with `qrelu`, `packs_to_u8(q)`.
    pub(super) fn column_i16<C: AsRef<[u8]>>(
        neuron: &AxNeuron,
        inputs: &[C],
        samples: usize,
        acc: &mut Vec<i16>,
        mut qrelu: Option<(QReluCfg, &mut Vec<u8>)>,
    ) {
        assert!(has_avx2(), "the i16 kernels need AVX2");
        assert_eq!(
            inputs.len(),
            neuron.weights.len(),
            "input column count mismatch"
        );
        // `truncate` then `resize` sets the length and writes only what
        // grows: every element is overwritten below.
        acc.truncate(samples);
        acc.resize(samples, 0);
        if let Some((_, out)) = &mut qrelu {
            out.truncate(samples);
            out.resize(samples, 0);
        }
        // SAFETY: AVX2 was confirmed above; the kernel bounds every
        // access by `samples`, the length of `acc`, of `out` and (it
        // asserts) of every active weight's column.
        unsafe {
            neuron_i16_avx2(
                neuron,
                inputs,
                acc,
                qrelu.as_mut().map(|(q, out)| (*q, &mut out[..])),
            );
        }
        // The samples past the last full stripe, in `i32`: partial sums
        // stay within |bias| + max(Σpos, Σneg) < 2^17.
        for s in samples / 16 * 16..samples {
            let mut a = neuron.bias;
            for (w, col) in neuron.weights.iter().zip(inputs) {
                let mask = (w.mask & 0xFF) as u8;
                if mask != 0 {
                    let term = i32::from(col.as_ref()[s] & mask) << w.shift;
                    a = if w.negative { a - term } else { a + term };
                }
            }
            match &mut qrelu {
                Some((q, out)) => out[s] = q.kernel().apply(i64::from(a)),
                None => acc[s] = a as i16,
            }
        }
    }

    /// The stripes of [`column_i16`], active weights in blocks of
    /// [`BLOCK`]. Each term `(x ⊙ m) ≪ k` is `(x ⊙ m) · 2^k`, and
    /// the weight's sign rides on the multiplier (`vpmullw` by `±2^k`),
    /// so every weight is one AND, one multiply and one add; the sums
    /// wrap mod 2^16, which is exact for every final value inside the
    /// `i16` range.
    ///
    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2 and that `qrelu`'s
    /// column is as long as `acc`.
    #[target_feature(enable = "avx2")]
    unsafe fn neuron_i16_avx2<C: AsRef<[u8]>>(
        neuron: &AxNeuron,
        inputs: &[C],
        acc: &mut [i16],
        mut qrelu: Option<(QReluCfg, &mut [u8])>,
    ) {
        let samples = acc.len();
        let chunks = samples / 16;
        let zero = _mm256_setzero_si256();
        let (count, ceil) = qrelu
            .as_ref()
            .map_or((_mm_setzero_si128(), zero), |(q, _)| {
                let ceil = (1i32 << q.out_bits) - 1;
                (
                    _mm_cvtsi32_si128(q.shift as i32),
                    _mm256_set1_epi16(ceil as i16),
                )
            });
        let bias = _mm256_set1_epi16(neuron.bias as i16);
        let mut cols: [&[u8]; BLOCK] = [&[]; BLOCK];
        let mut mask_v = [zero; BLOCK];
        let mut step_v = [zero; BLOCK];
        let mut active = neuron
            .weights
            .iter()
            .zip(inputs)
            .filter(|(w, _)| w.mask & 0xFF != 0)
            .peekable();
        let mut first = true;
        loop {
            let mut len = 0;
            while len < BLOCK {
                let Some((w, col)) = active.next() else { break };
                let col = col.as_ref();
                assert_eq!(col.len(), samples, "column length mismatch");
                cols[len] = col;
                mask_v[len] = _mm256_set1_epi16(i16::from((w.mask & 0xFF) as u8));
                let step = (1u16 << w.shift) as i16;
                step_v[len] = _mm256_set1_epi16(if w.negative {
                    step.wrapping_neg()
                } else {
                    step
                });
                len += 1;
            }
            let last = active.peek().is_none();
            let block = cols[..len].iter().zip(&mask_v[..len]).zip(&step_v[..len]);
            for c in 0..chunks {
                let at = c * 16;
                // SAFETY: `at + 16 <= samples` bounds the 16-byte column
                // loads, the 32-byte accumulator load and store, and the
                // 16-byte activation store.
                unsafe {
                    let slot = acc.as_mut_ptr().add(at).cast();
                    let mut cur = if first {
                        bias
                    } else {
                        _mm256_loadu_si256(slot)
                    };
                    for ((col, &mask), &step) in block.clone() {
                        let bytes = _mm_loadu_si128(col.as_ptr().add(at).cast());
                        let lanes = _mm256_and_si256(_mm256_cvtepu8_epi16(bytes), mask);
                        cur = _mm256_add_epi16(cur, _mm256_mullo_epi16(lanes, step));
                    }
                    match &mut qrelu {
                        Some((_, out)) if last => {
                            let shifted = _mm256_sra_epi16(cur, count);
                            let v = _mm256_min_epi16(_mm256_max_epi16(shifted, zero), ceil);
                            let lo = _mm256_castsi256_si128(v);
                            let hi = _mm256_extracti128_si256::<1>(v);
                            let packed = _mm_packus_epi16(lo, hi);
                            _mm_storeu_si128(out.as_mut_ptr().add(at).cast(), packed);
                        }
                        _ => _mm256_storeu_si256(slot, cur),
                    }
                }
            }
            if last {
                break;
            }
            first = false;
        }
    }

    /// The argmax and hit count of [`argmax_hits_i16`](super::argmax_hits_i16).
    /// Precondition (checked by the caller): at most 2^15 columns.
    pub(super) fn argmax_hits_i16(columns: &[Vec<i16>], labels: &[i16]) -> usize {
        assert!(has_avx2(), "the i16 kernels need AVX2");
        assert!(!columns.is_empty(), "argmax over zero columns");
        for col in columns {
            assert_eq!(col.len(), labels.len(), "column length mismatch");
        }
        let chunks = labels.len() / 16;
        // SAFETY: AVX2 was confirmed above; every column and `labels`
        // hold at least `chunks * 16` elements.
        let mut hits = unsafe { argmax_hits_avx2(columns, labels, chunks) };
        for (s, &label) in labels.iter().enumerate().skip(chunks * 16) {
            let (mut best, mut index) = (columns[0][s], 0);
            for (j, col) in columns.iter().enumerate().skip(1) {
                if col[s] > best {
                    best = col[s];
                    index = j;
                }
            }
            hits += usize::from(index as i16 == label);
        }
        hits
    }

    /// # Safety
    ///
    /// The caller must ensure the host supports AVX2, that `columns` is
    /// not empty, and that every column and `labels` hold at least
    /// `chunks * 16` elements.
    #[target_feature(enable = "avx2")]
    unsafe fn argmax_hits_avx2(columns: &[Vec<i16>], labels: &[i16], chunks: usize) -> usize {
        let one = _mm256_set1_epi16(1);
        let mut hits = 0usize;
        for c in 0..chunks {
            let at = c * 16;
            // SAFETY: `at + 16 <= len` bounds every 32-byte load.
            unsafe {
                let mut best = _mm256_loadu_si256(columns[0].as_ptr().add(at).cast());
                let mut index = _mm256_setzero_si256();
                let mut j = index;
                for col in &columns[1..] {
                    j = _mm256_add_epi16(j, one);
                    let x = _mm256_loadu_si256(col.as_ptr().add(at).cast());
                    let take = _mm256_cmpgt_epi16(x, best);
                    best = _mm256_max_epi16(best, x);
                    index = _mm256_blendv_epi8(index, j, take);
                }
                let label = _mm256_loadu_si256(labels.as_ptr().add(at).cast());
                let hit = _mm256_cmpeq_epi16(index, label);
                hits += (_mm256_movemask_epi8(hit) as u32).count_ones() as usize;
            }
        }
        // Each hit lane sets both of its bytes in the mask.
        hits / 2
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
    use crate::axmlp::AxWeight;
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

    /// Neurons on the `i16` rung: a mixed-sign one at the paper's
    /// widths, two whose terms wrap their lanes, and one with 40 active
    /// weights (two stripe blocks).
    fn short_neurons() -> Vec<AxNeuron> {
        let w = |mask: u16, shift: u8, negative: bool| AxWeight {
            mask,
            shift,
            negative,
        };
        vec![
            AxNeuron {
                weights: vec![w(0x0F, 6, false), w(0, 3, true), w(0x0B, 4, true)],
                bias: -2048,
            },
            AxNeuron {
                weights: vec![w(0xFF, 8, true), w(0x0F, 0, false)],
                bias: 32512,
            },
            AxNeuron {
                weights: vec![w(0x01, 15, false), w(0x0F, 2, true)],
                bias: -32708,
            },
            AxNeuron {
                weights: (0..40).map(|i| w(0x0F, i % 4, i % 3 == 0)).collect(),
                bias: 7,
            },
        ]
    }

    #[test]
    fn i16_kernels_match_the_i32_kernels_when_available() {
        if !i16_lanes() {
            return;
        }
        let q = QReluCfg {
            out_bits: 8,
            shift: 3,
        };
        for neuron in short_neurons() {
            assert!(crate::columnar::fits_i16(&neuron));
            for samples in [0usize, 1, 15, 16, 17, 33, 47, 200] {
                let refs: Vec<Vec<u8>> = (0..neuron.weights.len())
                    .map(|f| {
                        (0..samples)
                            .map(|s| ((s * 29 + f * 53) % 256) as u8)
                            .collect()
                    })
                    .collect();
                let (mut want, mut got) = (Vec::new(), Vec::new());
                accumulate_neuron_column_narrow_scalar(&neuron, &refs, samples, &mut want);
                accumulate_i16(&neuron, &refs, samples, &mut got);
                let got: Vec<i32> = got.iter().map(|&a| i32::from(a)).collect();
                assert_eq!(got, want, "samples {samples}");
                let want: Vec<u8> = want.iter().map(|&a| q.apply(i64::from(a))).collect();
                let mut out = vec![9; 3];
                hidden_column_i16(&neuron, &refs, samples, q, &mut Vec::new(), &mut out);
                assert_eq!(out, want, "samples {samples}");
            }
        }
    }

    #[test]
    fn i16_argmax_matches_the_scalar_sweep_when_available() {
        if !i16_lanes() {
            return;
        }
        for samples in [0usize, 1, 15, 16, 17, 33, 47] {
            // Few distinct values, so ties are common.
            let cols: Vec<Vec<i16>> = (0..5)
                .map(|j| {
                    (0..samples)
                        .map(|i| ((i * 7 + j * 13) % 5) as i16 * 8000 - 16000)
                        .collect()
                })
                .collect();
            let labels: Vec<usize> = (0..samples).map(|i| (i * 3) % 6).collect();
            let wide: Vec<Vec<i32>> = cols
                .iter()
                .map(|c| c.iter().map(|&a| i32::from(a)).collect())
                .collect();
            let want =
                crate::columnar::argmax_hits(&wide, &labels, &mut Vec::new(), &mut Vec::new());
            let lanes: Vec<i16> = labels.iter().map(|&l| l as i16).collect();
            assert_eq!(argmax_hits_i16(&cols, &lanes), want, "samples {samples}");
            let none: &[Vec<i16>] = &[];
            let zeros = lanes.iter().filter(|&&l| l == 0).count();
            assert_eq!(argmax_hits_i16(none, &lanes), zeros);
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
