//! The FA-only compression-tree model: reduce column heights to two
//! rows and count the full adders consumed.
//!
//! The DATE'24 paper's area proxy (§III-C) assumes FA-only 3:2
//! reduction: "Each FA performs a 3-to-2 reduction ... Reduction is
//! repeated until only two bits remain in each column", followed by a
//! final carry-propagate addition of the two remaining rows. [`reduce`]
//! implements that model for [`crate::tree_gates`]; `pe-hw`'s
//! `TreeBuilder` wires the same policy gate by gate.

/// Outcome of reducing column heights to at most two bits per column
/// and adding the two rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReductionStats {
    /// Full adders instantiated in the compression tree.
    pub tree_full_adders: u32,
    /// Full adders of the final carry-propagate adder.
    pub cpa_full_adders: u32,
    /// Number of reduction stages (tree depth in compressor levels).
    pub stages: u32,
    /// Sum bits of the carry-propagate adder: one per column, plus the
    /// final carry-out.
    pub sum_bits: u32,
    /// Whether the carry-propagate adder needs a constant 0: an FA that
    /// adds one bit and a carry, or two bits and no carry, ties its
    /// third input low, and an empty column without a carry has a
    /// constant-0 sum bit.
    pub ties_low: bool,
}

impl ReductionStats {
    /// All full adders: compression tree plus final adder.
    #[must_use]
    pub fn full_adders(&self) -> u32 {
        self.tree_full_adders + self.cpa_full_adders
    }
}

/// Reduce `heights` (column 0 first) until every column holds at most
/// two bits, then cost the final two-row carry-propagate adder, leaving
/// the two rows in `heights`.
///
/// The model is stage-based: in each stage every column of height
/// `h ≥ 3` feeds `⌊h/3⌋` full adders, each consuming 3 bits and
/// producing a sum bit in place and a carry one column left. Stages
/// repeat until all columns are ≤ 2 high.
///
/// ```
/// // Nine bits in one column: 3 FAs in the first stage, then one for
/// // their three sums and one for their three carries.
/// let mut heights = vec![9];
/// let stats = pe_arith::reduce::reduce(&mut heights);
/// assert_eq!(stats.tree_full_adders, 5);
/// assert_eq!(stats.stages, 2);
/// assert!(heights.iter().all(|&h| h <= 2));
/// ```
pub fn reduce(heights: &mut Vec<u32>) -> ReductionStats {
    let mut stats = ReductionStats::default();

    // Stages update in place with a single carry rail (carries of
    // column `c − 1` arrive while `c`'s original height is still in
    // hand), so the loop — run a few thousand times per genome by
    // the GA's area objective — allocates nothing per stage. The
    // tallest column is tracked through each pass so deciding
    // whether another stage is needed costs no extra scan.
    let mut tallest = heights.iter().copied().max().unwrap_or(0);
    while tallest > 2 {
        stats.stages += 1;
        let mut carry_in = 0u32;
        tallest = 0;
        for h in &mut *heights {
            let fas = *h / 3;
            stats.tree_full_adders += fas;
            // Each FA leaves one sum bit here and one carry left.
            *h = fas + *h % 3 + carry_in;
            tallest = tallest.max(*h);
            carry_in = fas;
        }
        if carry_in > 0 {
            heights.push(carry_in);
            tallest = tallest.max(carry_in);
        }
        while heights.last() == Some(&0) {
            heights.pop();
        }
    }

    // Final two-row carry-propagate adder: walk columns with a carry
    // rail. Two bits plus a carry need an FA; two bits without a
    // carry, or one bit with one, need an FA whose third input is tied
    // low (the paper's FA-only assumption); one bit without a carry is
    // wiring.
    let mut carry = false;
    for &h in heights.iter() {
        match (h, carry) {
            (0, false) => stats.ties_low = true,
            // The incoming carry becomes this column's sum bit.
            (0, true) => carry = false,
            (1, false) => {}
            (1, true) | (2, false) => {
                stats.cpa_full_adders += 1;
                stats.ties_low = true;
                carry = true;
            }
            (2, true) => {
                stats.cpa_full_adders += 1;
                carry = true;
            }
            _ => unreachable!("columns are at most 2 high after reduction"),
        }
    }
    stats.sum_bits = heights.len() as u32 + u32::from(carry);
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reduced(heights: &[u32]) -> (ReductionStats, Vec<u32>) {
        let mut heights = heights.to_vec();
        let stats = reduce(&mut heights);
        (stats, heights)
    }

    #[test]
    fn empty_profile_costs_nothing() {
        let (stats, _) = reduced(&[]);
        assert_eq!(stats.full_adders(), 0);
        assert_eq!(stats.stages, 0);
        assert_eq!(stats.sum_bits, 0);
    }

    #[test]
    fn two_high_profile_needs_only_cpa() {
        let (stats, _) = reduced(&[2, 2, 2]);
        assert_eq!(stats.tree_full_adders, 0);
        // col0: (2,no carry) -> adder, then carries ripple.
        assert_eq!(stats.cpa_full_adders, 3);
        assert_eq!(stats.sum_bits, 4);
    }

    #[test]
    fn three_in_column_is_one_fa() {
        let (stats, _) = reduced(&[3]);
        assert_eq!(stats.tree_full_adders, 1);
        assert_eq!(stats.stages, 1);
        // After reduction: col0 has 1 bit, col1 has 1 bit -> no CPA cells.
        assert_eq!(stats.cpa_full_adders, 0);
        assert!(!stats.ties_low);
    }

    #[test]
    fn paper_rule_three_zeros_save_one_fa() {
        // §III-B: "for every three constant 0 in a column, one FA is
        // eliminated from that column". Compare a 6-high column against a
        // 3-high column (three bits hard-wired to zero).
        let (dense, _) = reduced(&[6]);
        let (pruned, _) = reduced(&[3]);
        assert_eq!(dense.tree_full_adders - pruned.tree_full_adders, 1);
    }

    #[test]
    fn reduction_conserves_value_capacity() {
        // The maximum representable sum of the reduced profile must be at
        // least that of the original (3:2 compression is value-preserving).
        let capacity =
            |h: &[u32]| -> u64 { h.iter().enumerate().map(|(c, &h)| u64::from(h) << c).sum() };
        for heights in [vec![4u32, 4, 4], vec![7, 1, 3], vec![10]] {
            let (_, after) = reduced(&heights);
            assert!(capacity(&after) >= capacity(&heights));
        }
    }

    #[test]
    fn final_profile_is_at_most_two_high() {
        let (_, after) = reduced(&[9, 3, 17, 2, 5]);
        assert!(after.iter().all(|&h| h <= 2), "{after:?}");
    }

    #[test]
    fn deeper_columns_take_more_stages() {
        let (shallow, _) = reduced(&[3]);
        let (deep, _) = reduced(&[27]);
        assert!(deep.stages > shallow.stages);
    }
}
