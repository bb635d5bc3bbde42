//! Column heights of a bespoke multi-operand addition.
//!
//! Column `c` of an accumulation holds every bit of weight `2^c` that
//! can be non-zero at run time. A hard-wired `0` (a masked-out
//! activation bit, or a zero bit of a constant) is no bit at all, which
//! is exactly how bespoke hardware saves full adders (paper §III-B:
//! "for every three constant '0' in a column, one FA is eliminated from
//! that column").
//!
//! `neuron_lanes` builds the heights that [`crate::tree_gates`], the
//! one analytic adder-tree model, reduces, with no branch per mask bit:
//! each byte of a weight's mask is spread to one byte lane per bit by a
//! 256-entry table and added, eight columns to a word, at the weight's
//! shift. [`accumulator_width`] sizes the accumulator of `pe-hw`'s
//! structural elaborator, the model's independent oracle.

use crate::estimator::{NeuronArithSpec, WeightArith};
use crate::fixed::{to_twos_complement, unsigned_width};
use crate::reduce::Lanes;
use crate::summand::Summand;

/// What [`neuron_lanes`] reports about a neuron besides its heights.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct NeuronColumns {
    /// Accumulator width: the neuron's whole range in two's complement.
    pub accumulator_bits: u32,
    /// NOT gates: one per variable bit of a subtracted weight.
    pub not_gates: u32,
    /// The folded constant: every negation's two's-complement
    /// correction plus the bias, modulo `2^accumulator_bits`. Its set
    /// bits enter the tree as tie-high inputs and are counted in the
    /// heights.
    pub constant: u64,
}

/// `SPREAD[m]` holds bit `i` of the byte `m` in its byte `i`.
const SPREAD: [u64; 256] = {
    let mut table = [0u64; 256];
    let mut m = 0;
    while m < 256 {
        let mut i = 0;
        while i < 8 {
            table[m] |= ((m as u64 >> i) & 1) << (8 * i);
            i += 1;
        }
        m += 1;
    }
    table
};

/// Byte-lane words of one batch of summands: eight columns to a word,
/// room for 64 columns and the spill of a shifted word.
type ByteLanes = [u64; 9];

/// Live weights one byte-lane batch holds: with the constant's bit, no
/// column passes 255.
const BATCH: usize = 254;

/// Fill `lanes` with the column heights of `spec`'s accumulation
/// (trailing empty columns trimmed). `heights` is scratch for a neuron
/// with more live weights than one byte-lane batch holds.
///
/// Zero-mask weights are wired out. The variable bits of every other
/// weight stay in place: a subtracted weight's bits are inverted by
/// NOT gates, which leave the heights alone. Each negation's
/// two's-complement correction and the bias fold into one constant
/// whose set bits join the columns (§III-A: "the '1' from all two's
/// complement negations may be accumulated in the constant bias
/// term"). Over `W` accumulator bits a subtracted weight whose variable
/// bits sit at positions `p` contributes `((2^W − 1) & !p) + 1 ≡ −p`,
/// so the constant is `bias − Σ p` modulo `2^W`, in closed form.
///
/// # Panics
///
/// Panics if the spec is malformed: an input width outside `1..=32`, a
/// mask wider than it, or a shift above 24 (the bounds of
/// [`Summand::validate`]), or a range beyond a 63-bit accumulator.
/// Specs decoded from a genome or lowered from a baseline neuron are
/// always well-formed.
#[inline]
pub(crate) fn neuron_lanes(
    spec: &NeuronArithSpec,
    heights: &mut Vec<u32>,
    lanes: &mut Lanes,
) -> NeuronColumns {
    let well_formed = "neuron spec must be well-formed";
    // The mask bytes a well-formed weight can hold.
    let mask_bytes = spec.input_bits.div_ceil(8).min(4) as usize;
    let mut bytes: ByteLanes = [0; 9];
    let (mut pos, mut neg, mut misfit, mut not_gates) = (0u64, 0u64, 0u64, 0u64);
    let mut live = 0usize;
    for w in &spec.weights {
        let magnitude = w.mask.checked_shl(w.shift).unwrap_or(0);
        let negative = u64::from(w.negative);
        pos = pos.wrapping_add(magnitude * (1 - negative));
        neg = neg.wrapping_add(magnitude * negative);
        live += usize::from(w.mask != 0);
        misfit |= w.mask.checked_shr(spec.input_bits).unwrap_or(0);
        misfit |= w.mask * u64::from(w.shift > 24);
        not_gates += add_weight(&mut bytes, w, mask_bytes) * negative;
    }
    if misfit != 0 || (live > 0 && !(1..=32).contains(&spec.input_bits)) {
        for w in spec.weights.iter().filter(|w| w.mask != 0) {
            let summand = Summand::MaskedInput {
                input_bits: spec.input_bits,
                mask: w.mask,
                shift: w.shift,
                negative: w.negative,
            };
            summand.validate().expect(well_formed);
        }
    }
    // Every subtracted weight's correction: `−Σ p` modulo `2^W`.
    let negated = neg;
    if spec.bias >= 0 {
        pos += spec.bias.unsigned_abs();
    } else {
        neg += spec.bias.unsigned_abs();
    }
    let accumulator_bits = unsigned_width(pos.max(neg).max(1)) + 1;
    let bias = to_twos_complement(spec.bias, accumulator_bits).expect(well_formed);
    let constant = bias.wrapping_sub(negated) & ((1u64 << accumulator_bits) - 1);
    let columns = NeuronColumns {
        accumulator_bits,
        not_gates: not_gates as u32,
        constant,
    };
    // Every bit lies below the accumulator's top column.
    let words = accumulator_bits.div_ceil(8) as usize;
    if live > BATCH {
        // Batches of `BATCH` live weights, each added to the heights.
        heights.clear();
        heights.resize(8 * words, 0);
        bytes = [0; 9];
        add_constant(&mut bytes, constant, words);
        let live = spec.weights.iter().filter(|w| w.mask != 0);
        for (i, w) in live.enumerate() {
            add_weight(&mut bytes, w, mask_bytes);
            if (i + 1) % BATCH == 0 {
                add_to_heights(&mut bytes, heights);
            }
        }
        add_to_heights(&mut bytes, heights);
        while heights.last() == Some(&0) {
            heights.pop();
        }
        lanes.settle(heights);
        return columns;
    }
    add_constant(&mut bytes, constant, words);
    for (i, &word) in bytes[..words].iter().enumerate() {
        lanes.words[2 * i] = widen(word as u32);
        lanes.words[2 * i + 1] = widen((word >> 32) as u32);
    }
    let top = lanes.words[..2 * words].iter().rposition(|&w| w != 0);
    lanes.len = top.map_or(0, |i| {
        4 * i + 4 - lanes.words[i].leading_zeros() as usize / 16
    });
    columns
}

/// Add one to the column of each set bit of `w`'s mask, in its first
/// `mask_bytes` bytes: each byte spread to byte lanes and added at its
/// column, spilling into the next word. A zero mask adds nothing,
/// whatever its shift; a shift beyond 24 is moved to 24, which keeps
/// every column in the lanes until the caller rejects the weight.
/// Returns how many bits the mask set.
#[inline]
fn add_weight(bytes: &mut ByteLanes, w: &WeightArith, mask_bytes: usize) -> u64 {
    let shift = w.shift.min(24) * u32::from(w.mask != 0);
    let mut bits = 0;
    for b in 0..mask_bytes {
        let spread = SPREAD[(w.mask >> (8 * b) & 0xFF) as usize];
        // The byte lanes' sum, in the top byte.
        bits += spread.wrapping_mul(0x0101_0101_0101_0101) >> 56;
        let column = shift as usize + 8 * b;
        let shifted = u128::from(spread) << (8 * (column % 8));
        bytes[column / 8] += shifted as u64;
        bytes[column / 8 + 1] += (shifted >> 64) as u64;
    }
    bits
}

/// Add one to the column of each set bit of `constant`, over its first
/// `words` bytes.
#[inline]
fn add_constant(bytes: &mut ByteLanes, constant: u64, words: usize) {
    for (b, word) in bytes[..words].iter_mut().enumerate() {
        *word += SPREAD[(constant >> (8 * b) & 0xFF) as usize];
    }
}

/// Add the byte lanes to `heights` and empty them.
fn add_to_heights(bytes: &mut ByteLanes, heights: &mut [u32]) {
    for (c, h) in heights.iter_mut().enumerate() {
        *h += (bytes[c / 8] >> (8 * (c % 8)) & 0xFF) as u32;
    }
    *bytes = [0; 9];
}

/// Four byte lanes widened to four 16-bit lanes.
#[inline]
fn widen(four: u32) -> u64 {
    let x = u64::from(four);
    let x = (x | x << 16) & 0x0000_FFFF_0000_FFFF;
    (x | x << 8) & 0x00FF_00FF_00FF_00FF
}

/// Fill `heights` with the column heights of `spec`'s accumulation
/// (column 0 first, trailing empty columns trimmed), as
/// [`neuron_lanes`] builds them.
///
/// # Panics
///
/// As [`neuron_lanes`].
#[cfg(test)]
pub(crate) fn neuron_columns(spec: &NeuronArithSpec, heights: &mut Vec<u32>) -> NeuronColumns {
    let mut lanes = Lanes::new();
    let columns = neuron_lanes(spec, heights, &mut lanes);
    heights.clear();
    heights.extend((0..lanes.len).map(|c| (lanes.words[c / 4] >> (16 * (c % 4)) & 0xFFFF) as u32));
    columns
}

/// Accumulator width (in bits) that holds any runtime value of
/// `summands` in two's complement: `[-Σ neg_max, Σ pos_max]` plus one
/// sign bit.
#[must_use]
pub fn accumulator_width(summands: &[Summand]) -> u32 {
    let mut pos: u64 = 0;
    let mut neg: u64 = 0;
    for s in summands {
        match s {
            Summand::MaskedInput { negative, .. } => {
                if *negative {
                    neg += s.max_magnitude();
                } else {
                    pos += s.max_magnitude();
                }
            }
            Summand::Constant(c) => {
                if *c >= 0 {
                    pos += c.unsigned_abs();
                } else {
                    neg += c.unsigned_abs();
                }
            }
        }
    }
    unsigned_width(pos.max(neg).max(1)) + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::WeightArith;

    fn spec(input_bits: u32, weights: &[(u64, u32, bool)], bias: i64) -> NeuronArithSpec {
        NeuronArithSpec {
            input_bits,
            weights: weights
                .iter()
                .map(|&(mask, shift, negative)| WeightArith {
                    mask,
                    shift,
                    negative,
                })
                .collect(),
            bias,
        }
    }

    fn columns(spec: &NeuronArithSpec) -> (Vec<u32>, NeuronColumns) {
        let mut heights = Vec::new();
        let columns = neuron_columns(spec, &mut heights);
        (heights, columns)
    }

    fn height(heights: &[u32], c: usize) -> u32 {
        heights.get(c).copied().unwrap_or(0)
    }

    #[test]
    fn profile_from_positive_summands_counts_mask_bits() {
        let (heights, _) = columns(&spec(4, &[(0b1111, 0, false), (0b1010, 1, false)], 0));
        // Column 2 holds x0's bit 2 and x1's bit 1 shifted by one.
        assert_eq!(height(&heights, 0), 1);
        assert_eq!(height(&heights, 1), 1);
        assert_eq!(height(&heights, 2), 2);
        assert_eq!(height(&heights, 3), 1);
        assert_eq!(height(&heights, 4), 1);
        assert_eq!(heights.iter().sum::<u32>(), 4 + 2);
    }

    #[test]
    fn paper_example_mask_101101() {
        // §III-B example: A' = a5 0 a3 a2 0 a0, mask 101101 on a 6-bit
        // signal keeps bits 0, 2, 3 and 5.
        let (heights, c) = columns(&spec(6, &[(0b101101, 0, false)], 0));
        assert_eq!(heights, [1, 0, 1, 1, 0, 1]);
        assert_eq!(c.constant, 0);
    }

    #[test]
    fn constants_fold_together() {
        // −x0 (one bit) + 9 over 5 bits: the negation's correction
        // 0b11111 and the bias 0b01001 fold to 0b01000, one tie-high
        // bit beside the inverted variable bit.
        let (heights, c) = columns(&spec(4, &[(0b0001, 0, true)], 9));
        assert_eq!(c.accumulator_bits, 5);
        assert_eq!(c.constant, 0b01000);
        assert_eq!(heights, [1, 0, 0, 1]);
        assert_eq!(c.not_gates, 1);
    }

    #[test]
    fn negative_summand_adds_folded_constant_bits() {
        let (heights, c) = columns(&spec(4, &[(0b1111, 0, false), (0b0001, 0, true)], 0));
        // The negated bit stays in column 0 (inverted), the fold
        // constant occupies the remaining columns.
        assert!(heights[0] >= 2);
        assert!(heights.iter().sum::<u32>() > 5);
        assert_ne!(c.constant, 0);
    }

    /// Exactness check: the bespoke structure the heights describe
    /// (variable bits, inverted where subtracted, plus the folded
    /// constant, modulo 2^W) computes the plain signed sum, and the
    /// heights count exactly those bits.
    #[test]
    fn folded_semantics_match_signed_sum() {
        let weights = [(0b1101, 1, false), (0b0111, 0, true), (0b1011, 2, true)];
        let spec = spec(4, &weights, -5);
        let (heights, c) = columns(&spec);
        let w = c.accumulator_bits;
        let modulus = 1i64 << w;

        let mut expected = vec![0u32; w as usize];
        for &(mask, shift, _) in &weights {
            for b in 0..4 {
                expected[(b + shift) as usize] += (mask >> b & 1) as u32;
            }
        }
        for (b, e) in expected.iter_mut().enumerate() {
            *e += (c.constant >> b & 1) as u32;
        }
        while expected.last() == Some(&0) {
            expected.pop();
        }
        assert_eq!(heights, expected);

        for x0 in 0..16u64 {
            for x1 in 0..16u64 {
                for x2 in 0..16u64 {
                    let mut exact = spec.bias;
                    let mut structural = c.constant;
                    for (&(mask, shift, negative), x) in weights.iter().zip([x0, x1, x2]) {
                        let v = (x & mask) << shift;
                        if negative {
                            exact -= v as i64;
                            structural += !v & (mask << shift);
                        } else {
                            exact += v as i64;
                            structural += v;
                        }
                    }
                    assert_eq!(
                        structural as i64 % modulus,
                        exact.rem_euclid(modulus),
                        "x=({x0},{x1},{x2})"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulator_width_has_headroom() {
        let summands = vec![
            Summand::MaskedInput {
                input_bits: 4,
                mask: 0b1111,
                shift: 3,
                negative: false,
            };
            8
        ];
        // 8 * (15<<3) = 960, needs 10 bits + sign.
        assert_eq!(accumulator_width(&summands), 11);
    }

    #[test]
    fn empty_profile_behaviour() {
        // No live weight and no bias: no bits, no constant, no gates.
        let (heights, c) = columns(&spec(4, &[(0, 3, true), (0, 0, false)], 0));
        assert!(heights.is_empty());
        assert_eq!(c.constant, 0);
        assert_eq!(c.not_gates, 0);
        assert_eq!(c.accumulator_bits, 2);
    }
}
