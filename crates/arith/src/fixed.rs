//! Small fixed-point / bit-width helpers used across the workspace.
//!
//! Bespoke printed datapaths are narrow (4-bit activations, 8-bit
//! quantized activations/weights, accumulators of a couple dozen bits),
//! so all helpers here work on `i64`/`u64` and explicit bit widths.

use crate::error::ArithError;

/// Maximum representable value of a two's-complement field of `width` bits.
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 63.
///
/// ```
/// assert_eq!(pe_arith::max_signed(8), 127);
/// ```
#[must_use]
pub fn max_signed(width: u32) -> i64 {
    assert!((1..=63).contains(&width), "width {width} out of 1..=63");
    (1i64 << (width - 1)) - 1
}

/// Minimum representable value of a two's-complement field of `width` bits.
///
/// # Panics
///
/// Panics if `width` is 0 or greater than 63.
///
/// ```
/// assert_eq!(pe_arith::min_signed(8), -128);
/// ```
#[must_use]
pub fn min_signed(width: u32) -> i64 {
    assert!((1..=63).contains(&width), "width {width} out of 1..=63");
    -(1i64 << (width - 1))
}

/// Number of bits needed to represent the unsigned value `v`.
///
/// Zero needs one bit by convention (a single constant-zero wire).
///
/// ```
/// assert_eq!(pe_arith::unsigned_width(0), 1);
/// assert_eq!(pe_arith::unsigned_width(255), 8);
/// assert_eq!(pe_arith::unsigned_width(256), 9);
/// ```
#[must_use]
#[inline]
pub fn unsigned_width(v: u64) -> u32 {
    if v == 0 {
        1
    } else {
        64 - v.leading_zeros()
    }
}

/// Check that `v` fits a two's-complement field of `width` bits.
///
/// # Errors
///
/// Returns [`ArithError::ValueOutOfRange`] if `v` does not fit, and
/// [`ArithError::InvalidWidth`] if `width` is outside `1..=63`.
#[inline]
pub fn check_signed(v: i64, width: u32) -> Result<i64, ArithError> {
    if !(1..=63).contains(&width) {
        return Err(ArithError::InvalidWidth { width });
    }
    if v < min_signed(width) || v > max_signed(width) {
        return Err(ArithError::ValueOutOfRange { value: v, width });
    }
    Ok(v)
}

/// Encode a signed value into its two's-complement bit pattern over
/// `width` bits.
///
/// # Errors
///
/// Returns an error if `v` does not fit in `width` bits.
///
/// ```
/// assert_eq!(pe_arith::fixed::to_twos_complement(-1, 4).unwrap(), 0b1111);
/// assert_eq!(pe_arith::fixed::to_twos_complement(5, 4).unwrap(), 0b0101);
/// ```
#[inline]
pub fn to_twos_complement(v: i64, width: u32) -> Result<u64, ArithError> {
    check_signed(v, width)?;
    Ok((v as u64) & ((1u64 << width) - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unsigned_bounds_round_trip() {
        for w in 1..=16 {
            let m = (1u64 << w) - 1;
            assert_eq!(unsigned_width(m), w);
            assert_eq!(unsigned_width(m + 1), w + 1);
        }
    }

    #[test]
    fn signed_bounds_round_trip() {
        for w in 2..=16 {
            assert!(check_signed(max_signed(w), w).is_ok());
            assert!(check_signed(min_signed(w), w).is_ok());
            assert!(check_signed(max_signed(w) + 1, w).is_err());
            assert!(check_signed(min_signed(w) - 1, w).is_err());
        }
    }

    #[test]
    fn twos_complement_known_patterns() {
        assert_eq!(to_twos_complement(-8, 4).unwrap(), 0b1000);
        assert_eq!(to_twos_complement(7, 4).unwrap(), 0b0111);
        assert_eq!(to_twos_complement(0, 4).unwrap(), 0);
        assert!(to_twos_complement(8, 4).is_err());
    }
}
