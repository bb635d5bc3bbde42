//! Owned math functions: ports of published algorithms, so a value that
//! reaches an artifact does not depend on which libm the host links.
//!
//! A libm may answer the same call differently on two hosts (glibc, for
//! one, picks an FMA build of `expf` on CPUs that have FMA), and trained
//! weights pass through every such call. Each port here performs a fixed
//! sequence of IEEE 754 operations; its fused multiply-adds go through
//! `f64::mul_add`, which is correctly rounded with or without FMA
//! hardware, so it returns the same bits on every host.
//!
//! * [`expf`] — glibc's `expf` (the algorithm of ARM's
//!   optimized-routines: a 32-entry table of `2^(i/32)` and a cubic, in
//!   `f64`), as glibc's FMA build computes it. Its constants are public
//!   so that a vector kernel can run the same operations lane by lane.

/// `expf`'s table: entry `i` is the bits of `2^(i/32)` (rounded to
/// nearest `f64`) less `i << 47`, so that adding `k << 47` for any `k`
/// with `k % 32 == i` gives the bits of `2^(k/32)`.
pub static EXPF_TABLE: [u64; 32] = [
    0x3ff0_0000_0000_0000,
    0x3fef_d9b0_d315_8574,
    0x3fef_b558_6cf9_890f,
    0x3fef_9301_d012_5b51,
    0x3fef_72b8_3c7d_517b,
    0x3fef_5487_3168_b9aa,
    0x3fef_387a_6e75_6238,
    0x3fef_1e9d_f51f_dee1,
    0x3fef_06fe_0a31_b715,
    0x3fee_f1a7_373a_a9cb,
    0x3fee_dea6_4c12_3422,
    0x3fee_ce08_6061_892d,
    0x3fee_bfda_d536_2a27,
    0x3fee_b42b_569d_4f82,
    0x3fee_ab07_dd48_5429,
    0x3fee_a47e_b03a_5585,
    0x3fee_a09e_667f_3bcd,
    0x3fee_9f75_e8ec_5f74,
    0x3fee_a114_73eb_0187,
    0x3fee_a589_994c_ce13,
    0x3fee_ace5_422a_a0db,
    0x3fee_b737_b0cd_c5e5,
    0x3fee_c491_82a3_f090,
    0x3fee_d503_b23e_255d,
    0x3fee_e89f_995a_d3ad,
    0x3fee_ff76_f2fb_5e47,
    0x3fef_199b_dd85_529c,
    0x3fef_3720_dcef_9069,
    0x3fef_5818_dcfb_a487,
    0x3fef_7c97_337b_9b5f,
    0x3fef_a4af_a2a4_90da,
    0x3fef_d076_5b6e_4540,
];

/// `32 / ln 2` (`0x1.71547652b82fep+5`): scales `x` to 32nds of a
/// binary exponent.
pub const EXPF_INV_LN2_N: f64 = f64::from_bits(0x4047_1547_652b_82fe);

/// `1.5 · 2^52`: adding it rounds a scaled `x` to the nearest integer
/// `k`, which then sits in the low bits of the sum.
pub const EXPF_SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);

/// The cubic `C0·r³ + C1·r² + C2·r + 1 ≈ 2^(r/32)` on `r ∈ [−½, ½]`:
/// `[C0, C1, C2]` = `0x1.c6af84b912394p-20`, `0x1.ebfce50fac4f3p-13`,
/// `0x1.62e42ff0c52d6p-6`.
pub const EXPF_POLY: [f64; 3] = [
    f64::from_bits(0x3ebc_6af8_4b91_2394),
    f64::from_bits(0x3f2e_bfce_50fa_c4f3),
    f64::from_bits(0x3f96_2e42_ff0c_52d6),
];

/// The largest input whose `expf` is finite, `0x1.62e42ep6` ≈ 88.72:
/// larger inputs return +∞.
pub const EXPF_OVERFLOW: f32 = f32::from_bits(0x42b1_7217);

/// The least input [`expf`] evaluates, `−0x1.9fe368p6` ≈ −103.97:
/// smaller inputs, −∞ among them, return +0.
pub const EXPF_UNDERFLOW: f32 = f32::from_bits(0xc2cf_f1b4);

/// `e^x`, as glibc's `expf` computes it with FMA: `x · 32/ln 2 = k + r`
/// with an integer `k` and `|r| ≤ ½`, then `e^x = 2^(k/32) · 2^(r/32)`,
/// the first factor from [`EXPF_TABLE`] and the exponent bits, the
/// second from the cubic [`EXPF_POLY`], all in `f64` with one rounding
/// to `f32` at the end. NaN returns `x + x` (a quiet NaN), inputs above
/// [`EXPF_OVERFLOW`] return +∞ and inputs below [`EXPF_UNDERFLOW`]
/// return +0.
///
/// ```
/// use pe_arith::math::expf;
///
/// assert_eq!(expf(0.0), 1.0);
/// assert_eq!(expf(f32::NEG_INFINITY), 0.0);
/// assert!((expf(1.0) - std::f32::consts::E).abs() <= f32::EPSILON);
/// ```
#[must_use]
pub fn expf(x: f32) -> f32 {
    if x.is_nan() {
        return x + x;
    }
    if x > EXPF_OVERFLOW {
        return f32::INFINITY;
    }
    if x < EXPF_UNDERFLOW {
        return 0.0;
    }
    let [c0, c1, c2] = EXPF_POLY;
    let xd = f64::from(x);
    // `kd` holds `k` in its low bits; after removing the shift it is
    // `k` exactly, and `r` is the fused remainder.
    let kd = xd.mul_add(EXPF_INV_LN2_N, EXPF_SHIFT);
    let ki = kd.to_bits();
    let kd = kd - EXPF_SHIFT;
    let r = xd.mul_add(EXPF_INV_LN2_N, -kd);
    let s = f64::from_bits(EXPF_TABLE[(ki % 32) as usize].wrapping_add(ki << 47));
    let z = c0.mul_add(r, c1);
    let r2 = r * r;
    let y = c2.mul_add(r, 1.0);
    let y = z.mul_add(r2, y);
    (y * s) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bits(x: u32) -> u32 {
        expf(f32::from_bits(x)).to_bits()
    }

    /// Input → output bits, taken from glibc 2.36's FMA `expf`; the
    /// fused port returns them on every host.
    #[test]
    fn pinned_inputs_return_pinned_bits() {
        let cases: [(u32, u32); 16] = [
            // The one input where an unfused evaluation is an ulp low.
            (0xc27c_65d9, 0x11fa_2993),
            (0x0000_0000, 0x3f80_0000),
            (0x8000_0000, 0x3f80_0000),
            (0x3f80_0000, 0x402d_f854),
            (0xbf80_0000, 0x3ebc_5ab2),
            // Around the underflow bound −0x1.9fe368p6: the bound itself
            // and the input above it round to the smallest subnormal,
            // the input below it returns +0.
            (0xc2cf_f1b3, 0x0000_0001),
            (0xc2cf_f1b4, 0x0000_0001),
            (0xc2cf_f1b5, 0x0000_0000),
            // −103.5: the smallest subnormal; −100: a larger subnormal.
            (0xc2cf_0000, 0x0000_0001),
            (0xc2c8_0000, 0x0000_001b),
            // ±88, where glibc's fast path ends.
            (0xc2b0_0000, 0x0041_edc4),
            (0x42b0_0000, 0x7ef8_82b7),
            // The overflow bound returns a finite value; past it, +∞.
            (0x42b1_7217, 0x7f7f_ff84),
            (0x42b1_7218, 0x7f80_0000),
            (0x42b2_0000, 0x7f80_0000),
            (0xff80_0000, 0x0000_0000),
        ];
        for (x, want) in cases {
            assert_eq!(bits(x), want, "expf({:e}) [{x:#010x}]", f32::from_bits(x));
        }
        assert_eq!(expf(89.0), f32::INFINITY);
        assert_eq!(expf(f32::INFINITY), f32::INFINITY);
        assert!(expf(f32::NAN).is_nan());
        assert!(expf(f32::from_bits(0xffc0_0001)).is_nan());
    }

    /// The table holds `2^(i/32)` less `i << 47`: its entries rebuild
    /// `2^(k/32)` for `k` in steps of 32 exactly, and its entry 16 is
    /// √2 (whose `f64` bits are well known).
    #[test]
    fn the_table_rebuilds_powers_of_two() {
        for (i, &entry) in EXPF_TABLE.iter().enumerate() {
            let with = |k: u64| f64::from_bits(entry.wrapping_add(k << 47));
            let base = with(i as u64);
            assert!((1.0..2.0).contains(&base), "entry {i}: {base}");
            assert_eq!(with(i as u64 + 32), 2.0 * base);
            assert_eq!(with((i as u64).wrapping_sub(64)), base / 4.0);
        }
        assert_eq!(
            EXPF_TABLE[16].wrapping_add(16 << 47),
            std::f64::consts::SQRT_2.to_bits()
        );
    }
}
