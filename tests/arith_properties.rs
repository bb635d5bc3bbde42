//! Property tests on the arithmetic substrate's invariants.

use proptest::prelude::*;

use printed_mlps::arith::column::accumulator_width;
use printed_mlps::arith::reduce::reduce;
use printed_mlps::arith::{csd_digits, Summand};

fn capacity(heights: &[u32]) -> u64 {
    (0..).zip(heights).map(|(c, &h)| u64::from(h) << c).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Reduction always terminates with columns at most two high, and
    /// never loses representable value capacity.
    #[test]
    fn reduction_is_capacity_preserving(
        heights in proptest::collection::vec(0u32..12, 1..12),
    ) {
        let mut reduced = heights.clone();
        let _ = reduce(&mut reduced);
        prop_assert!(reduced.iter().all(|&h| h <= 2));
        let (before, after) = (capacity(&heights), capacity(&reduced));
        prop_assert!(after >= before, "{} < {}", after, before);
    }

    /// Taller profiles never need fewer tree FAs than a column-wise
    /// subset of themselves.
    #[test]
    fn adding_bits_never_reduces_tree_cost(
        heights in proptest::collection::vec(0u32..10, 1..8),
        extra_col in 0usize..8,
        extra in 1u32..4,
    ) {
        let mut taller = heights.clone();
        if extra_col >= taller.len() {
            taller.resize(extra_col + 1, 0);
        }
        taller[extra_col] += extra;
        prop_assert!(
            reduce(&mut taller).full_adders() >= reduce(&mut heights.clone()).full_adders()
        );
    }

    /// CSD reconstructs every value with non-adjacent digits, never
    /// using more digits than the binary representation.
    #[test]
    fn csd_is_canonical(v in -100_000i64..100_000) {
        let digits = csd_digits(v);
        let reconstructed: i64 = digits.iter().map(|&(p, d)| d.value() << p).sum();
        prop_assert_eq!(reconstructed, v);
        for w in digits.windows(2) {
            prop_assert!(w[1].0 >= w[0].0 + 2);
        }
        prop_assert!(digits.len() as u32 <= v.unsigned_abs().count_ones().max(1));
    }

    /// The two's-complement folding identity behind §III-A holds for
    /// arbitrary masks, shifts, and inputs.
    #[test]
    fn sign_folding_identity(
        mask in 0u64..256,
        shift in 0u32..6,
        x in 0u64..256,
    ) {
        prop_assume!(mask != 0);
        let s = Summand::MaskedInput { input_bits: 8, mask, shift, negative: true };
        let summands = [s.clone()];
        let acc_bits = accumulator_width(&summands);
        let modulus = 1u64 << acc_bits;
        let k = s.negation_constant(acc_bits).unwrap().expect("negative summand");
        let v = (x & mask) << shift;
        let inverted = (!v) & (mask << shift);
        prop_assert_eq!(
            (inverted + k) % modulus,
            modulus.wrapping_sub(v) % modulus
        );
    }

    /// Accumulator widths always hold the extreme sums.
    #[test]
    fn accumulator_width_is_sufficient(
        masks in proptest::collection::vec((0u64..16, 0u32..7, any::<bool>()), 1..10),
        bias in -2000i64..2000,
    ) {
        let mut summands: Vec<Summand> = masks
            .iter()
            .map(|&(mask, shift, negative)| Summand::MaskedInput {
                input_bits: 4,
                mask,
                shift,
                negative,
            })
            .collect();
        summands.push(Summand::Constant(bias));
        let w = accumulator_width(&summands);
        // Max positive and negative runtime sums must fit in w-bit
        // two's complement.
        let max_pos: i64 = summands
            .iter()
            .map(|s| match s {
                Summand::MaskedInput { negative: false, .. } => s.max_magnitude() as i64,
                Summand::Constant(c) if *c > 0 => *c,
                _ => 0,
            })
            .sum();
        let max_neg: i64 = summands
            .iter()
            .map(|s| match s {
                Summand::MaskedInput { negative: true, .. } => s.max_magnitude() as i64,
                Summand::Constant(c) if *c < 0 => -*c,
                _ => 0,
            })
            .sum();
        let hi = (1i64 << (w - 1)) - 1;
        let lo = -(1i64 << (w - 1));
        prop_assert!(max_pos <= hi, "max {} width {}", max_pos, w);
        prop_assert!(-max_neg >= lo, "min {} width {}", -max_neg, w);
    }
}
