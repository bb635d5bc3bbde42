//! Operands of a bespoke multi-operand addition.
//!
//! In a bespoke printed neuron every operand of the accumulation is known
//! at design time *structurally* (which bit positions can be non-zero,
//! whether the operand is added or subtracted) even though the input
//! values themselves are runtime signals. [`Summand`] captures exactly
//! that structure: `pe-hw`'s structural elaborator binds each summand
//! to the nets of its input, and the design store validates stored
//! weights through it.

use serde::{Deserialize, Serialize};

use crate::error::ArithError;

/// One operand of a bespoke multi-operand addition.
///
/// A summand is either a *masked, shifted input signal* (possibly
/// subtracted) or a *design-time constant*. The masked-input form models
/// the DATE'24 approximate neuron: the product of an unsigned input
/// activation with a power-of-two weight `s·2^k` where the mask removes
/// individual activation bits from the adder tree (§III-B of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Summand {
    /// A masked input activation, shifted left by a constant exponent.
    ///
    /// The runtime value is `(x & mask) << shift`, added when
    /// `negative == false` and subtracted otherwise.
    MaskedInput {
        /// Width of the input signal `x` in bits.
        input_bits: u32,
        /// Bit mask applied to the input (`1` keeps the bit).
        mask: u64,
        /// Constant left-shift implementing the power-of-two weight.
        shift: u32,
        /// Whether this summand is subtracted (`s = -1`).
        negative: bool,
    },
    /// A design-time constant (e.g. the bias, or folded sign-correction
    /// terms).
    Constant(i64),
}

impl Summand {
    /// Validate internal consistency (mask within width, shift sane).
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::InvalidWidth`], [`ArithError::MaskExceedsWidth`]
    /// or [`ArithError::ShiftTooLarge`] on malformed summands.
    pub fn validate(&self) -> Result<(), ArithError> {
        match *self {
            Summand::MaskedInput {
                input_bits,
                mask,
                shift,
                ..
            } => {
                if !(1..=32).contains(&input_bits) {
                    return Err(ArithError::InvalidWidth { width: input_bits });
                }
                if mask >> input_bits != 0 {
                    return Err(ArithError::MaskExceedsWidth {
                        mask,
                        width: input_bits,
                    });
                }
                if shift > 24 {
                    return Err(ArithError::ShiftTooLarge { shift });
                }
                Ok(())
            }
            Summand::Constant(_) => Ok(()),
        }
    }

    /// Maximum runtime value of the summand *magnitude* (before sign).
    #[must_use]
    pub fn max_magnitude(&self) -> u64 {
        match *self {
            Summand::MaskedInput { mask, shift, .. } => mask << shift,
            Summand::Constant(c) => c.unsigned_abs(),
        }
    }

    /// Evaluate the summand for a concrete input value.
    ///
    /// For constants the input is ignored. The result carries the sign.
    #[must_use]
    pub fn evaluate(&self, x: u64) -> i64 {
        match *self {
            Summand::MaskedInput {
                mask,
                shift,
                negative,
                ..
            } => {
                let v = ((x & mask) << shift) as i64;
                if negative {
                    -v
                } else {
                    v
                }
            }
            Summand::Constant(c) => c,
        }
    }

    /// Fold the subtraction of this summand into inverted variable bits
    /// plus a constant correction, over an accumulator of `acc_bits`.
    ///
    /// Two's-complement subtraction of `v` (whose variable bits live at
    /// the set bits of `mask << shift`) is `~v + 1` over the accumulator
    /// width: the variable bits are inverted in place (one NOT gate each,
    /// no FA impact), every *other* accumulator bit becomes a constant
    /// `1`, and the `+1` is a constant. This method returns that constant
    /// correction, which the caller accumulates into the neuron's bias
    /// (§III-A of the paper: "the '1' from all two's complement negations
    /// may be accumulated in the constant bias term").
    ///
    /// Returns `None` for constants and non-negative summands.
    ///
    /// # Errors
    ///
    /// Returns [`ArithError::ShiftTooLarge`] if the summand's bits do not
    /// fit in `acc_bits`.
    pub fn negation_constant(&self, acc_bits: u32) -> Result<Option<u64>, ArithError> {
        match *self {
            Summand::MaskedInput {
                mask,
                shift,
                negative: true,
                ..
            } => {
                let positions = mask << shift;
                if acc_bits > 63 || positions >> acc_bits != 0 {
                    return Err(ArithError::ShiftTooLarge { shift });
                }
                let all_ones = (1u64 << acc_bits) - 1;
                // Constant part of ~v: ones everywhere the variable bits are
                // not; plus the +1 of two's complement.
                let constant = (all_ones & !positions).wrapping_add(1) & all_ones;
                Ok(Some(constant))
            }
            _ => Ok(None),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn evaluate_applies_mask_shift_sign() {
        let s = Summand::MaskedInput {
            input_bits: 4,
            mask: 0b1010,
            shift: 1,
            negative: true,
        };
        // x = 0b1111 -> masked 0b1010 = 10 -> <<1 = 20 -> negated.
        assert_eq!(s.evaluate(0b1111), -20);
        assert_eq!(Summand::Constant(-3).evaluate(123), -3);
    }

    #[test]
    fn zero_mask_is_structurally_zero() {
        let s = Summand::MaskedInput {
            input_bits: 4,
            mask: 0,
            shift: 3,
            negative: true,
        };
        assert_eq!(s.max_magnitude(), 0);
        // Its negation folds to no constant: ~0 + 1 wraps to 0.
        assert_eq!(s.negation_constant(8), Ok(Some(0)));
    }

    #[test]
    fn validation_rejects_bad_masks() {
        let s = Summand::MaskedInput {
            input_bits: 4,
            mask: 0b10000,
            shift: 0,
            negative: false,
        };
        assert_eq!(
            s.validate(),
            Err(ArithError::MaskExceedsWidth {
                mask: 0b10000,
                width: 4
            })
        );
    }

    /// The algebra the paper relies on: over an accumulator of width W,
    /// `-v mod 2^W == (~v_variable_bits) + negation_constant`, so folding
    /// the constant into the bias preserves exact arithmetic.
    #[test]
    fn negation_constant_matches_twos_complement() {
        let acc_bits = 10;
        let modulus = 1u64 << acc_bits;
        for mask in [0b1111u64, 0b1010, 0b0001, 0b1000] {
            for shift in 0..4u32 {
                let s = Summand::MaskedInput {
                    input_bits: 4,
                    mask,
                    shift,
                    negative: true,
                };
                let k = s.negation_constant(acc_bits).unwrap().unwrap();
                for x in 0..16u64 {
                    let v = (x & mask) << shift;
                    // Inverted variable bits: bits of ~v restricted to the
                    // variable positions.
                    let inverted = (!v) & (mask << shift);
                    let lhs = (inverted + k) % modulus;
                    let rhs = modulus.wrapping_sub(v) % modulus;
                    assert_eq!(lhs, rhs, "mask={mask:#b} shift={shift} x={x}");
                }
            }
        }
    }

    #[test]
    fn negation_constant_none_for_positive() {
        let s = Summand::MaskedInput {
            input_bits: 4,
            mask: 0b1111,
            shift: 0,
            negative: false,
        };
        assert_eq!(s.negation_constant(8).unwrap(), None);
        assert_eq!(Summand::Constant(5).negation_constant(8).unwrap(), None);
    }
}
