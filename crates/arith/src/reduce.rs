//! Compression-tree model: reduce a [`ColumnProfile`] to two rows and
//! count the full adders (and optionally half adders) consumed.
//!
//! The DATE'24 paper's area proxy (§III-C) assumes FA-only 3:2 reduction:
//! "Each FA performs a 3-to-2 reduction ... Reduction is repeated until
//! only two bits remain in each column", followed by a final
//! carry-propagate addition of the two remaining rows. [`Reducer`]
//! implements that model plus a slightly more faithful FA+HA variant for
//! ablation studies.

use serde::{Deserialize, Serialize};

use crate::column::ColumnProfile;

/// Which compressor cells the reduction tree may instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReductionKind {
    /// Full adders only — the paper's simplifying assumption (§III-C).
    FaOnly,
    /// Full adders plus half adders (Dadda-style), used by the netlist
    /// elaborator and the `fa_vs_netlist` ablation bench.
    FaHa,
}

/// Outcome of reducing a column profile to at most two bits per column.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReductionStats {
    /// Full adders instantiated in the compression tree.
    pub tree_full_adders: u32,
    /// Half adders instantiated in the compression tree (0 for
    /// [`ReductionKind::FaOnly`]).
    pub tree_half_adders: u32,
    /// Full adders of the final carry-propagate adder.
    pub cpa_full_adders: u32,
    /// Half adders of the final carry-propagate adder.
    pub cpa_half_adders: u32,
    /// Number of reduction stages (tree depth in compressor levels).
    pub stages: u32,
    /// Column profile after reduction (each column at most 2 high),
    /// i.e. the two rows entering the final adder.
    pub final_profile: ColumnProfile,
}

impl ReductionStats {
    /// All full adders: compression tree plus final adder.
    #[must_use]
    pub fn full_adders(&self) -> u32 {
        self.tree_full_adders + self.cpa_full_adders
    }

    /// All half adders: compression tree plus final adder.
    #[must_use]
    pub fn half_adders(&self) -> u32 {
        self.tree_half_adders + self.cpa_half_adders
    }

    /// Paper-style scalar cost: the total FA count, with HAs weighted as
    /// half an FA (an HA is roughly half the gates of an FA).
    #[must_use]
    pub fn fa_equivalent(&self) -> f64 {
        f64::from(self.full_adders()) + 0.5 * f64::from(self.half_adders())
    }
}

/// Reduces column profiles to two rows and counts compressor cells.
///
/// ```
/// use pe_arith::{ColumnProfile, Reducer, ReductionKind};
///
/// // Nine bits in one column: FA-only reduction needs 4 FAs in-column
/// // (plus carries rippling into the next column).
/// let p = ColumnProfile::from_heights(vec![9]);
/// let stats = Reducer::new(ReductionKind::FaOnly).reduce(&p);
/// assert!(stats.tree_full_adders >= 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reducer {
    kind: ReductionKind,
}

impl Reducer {
    /// Create a reducer using the given compressor policy.
    #[must_use]
    pub fn new(kind: ReductionKind) -> Self {
        Self { kind }
    }

    /// The compressor policy of this reducer.
    #[must_use]
    pub fn kind(&self) -> ReductionKind {
        self.kind
    }

    /// Reduce `profile` until every column holds at most two bits, then
    /// cost the final two-row carry-propagate adder.
    ///
    /// The model is stage-based: in each stage every column of height
    /// `h ≥ 3` feeds `⌊h/3⌋` full adders (each consuming 3 bits,
    /// producing a sum bit in place and a carry one column left). With
    /// [`ReductionKind::FaHa`], a leftover pair in a column that still
    /// needs shrinking is consumed by a half adder. Stages repeat until
    /// all columns are ≤ 2 high.
    #[must_use]
    pub fn reduce(&self, profile: &ColumnProfile) -> ReductionStats {
        let mut heights: Vec<u32> = profile.as_heights().to_vec();
        let mut stats = self.reduce_in_place(&mut heights);
        stats.final_profile = ColumnProfile::from_heights(heights);
        stats
    }

    /// [`reduce`](Self::reduce) directly on a mutable height vector,
    /// leaving the final two rows in `heights` and
    /// `final_profile` empty — the allocation-free core shared with the
    /// estimator's gate-count hot path.
    pub(crate) fn reduce_in_place(&self, heights: &mut Vec<u32>) -> ReductionStats {
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
                let mut rem = *h % 3;
                stats.tree_full_adders += fas;
                // Each FA leaves one sum bit here and one carry left.
                let mut kept = fas;
                let mut carry_out = fas;
                if self.kind == ReductionKind::FaHa && rem == 2 && *h > 2 {
                    stats.tree_half_adders += 1;
                    kept += 1;
                    carry_out += 1;
                    rem = 0;
                }
                *h = kept + rem + carry_in;
                tallest = tallest.max(*h);
                carry_in = carry_out;
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
        // rail. A column with two bits plus incoming carry needs an FA;
        // two bits without carry, or one bit with carry, needs an HA
        // (counted as an FA under FaOnly, matching the paper's
        // FA-only assumption); one bit without carry is wiring.
        let mut carry = false;
        for &h in heights.iter() {
            match (h, carry) {
                (0, false) => {}
                (0, true) => {
                    // The incoming carry becomes this column's sum bit:
                    // wiring only, and no carry propagates further.
                    carry = false;
                }
                (1, false) => {}
                (1, true) | (2, false) => {
                    if self.kind == ReductionKind::FaHa {
                        stats.cpa_half_adders += 1;
                    } else {
                        stats.cpa_full_adders += 1;
                    }
                    // HA of (bit,carry) or (bit,bit): carry-out possible.
                    carry = true;
                }
                (2, true) => {
                    stats.cpa_full_adders += 1;
                    carry = true;
                }
                _ => unreachable!("columns are at most 2 high after reduction"),
            }
        }

        stats
    }
}

impl Default for Reducer {
    /// The paper's FA-only policy.
    fn default() -> Self {
        Self::new(ReductionKind::FaOnly)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_profile_costs_nothing() {
        let stats = Reducer::default().reduce(&ColumnProfile::new());
        assert_eq!(stats.full_adders(), 0);
        assert_eq!(stats.stages, 0);
    }

    #[test]
    fn two_high_profile_needs_only_cpa() {
        let p = ColumnProfile::from_heights(vec![2, 2, 2]);
        let stats = Reducer::new(ReductionKind::FaOnly).reduce(&p);
        assert_eq!(stats.tree_full_adders, 0);
        // col0: (2,no carry) -> adder, then carries ripple.
        assert_eq!(stats.cpa_full_adders, 3);
    }

    #[test]
    fn three_in_column_is_one_fa() {
        let p = ColumnProfile::from_heights(vec![3]);
        let stats = Reducer::new(ReductionKind::FaOnly).reduce(&p);
        assert_eq!(stats.tree_full_adders, 1);
        assert_eq!(stats.stages, 1);
        // After reduction: col0 has 1 bit, col1 has 1 bit -> no CPA cells.
        assert_eq!(stats.cpa_full_adders, 0);
    }

    #[test]
    fn paper_rule_three_zeros_save_one_fa() {
        // §III-B: "for every three constant 0 in a column, one FA is
        // eliminated from that column". Compare a 6-high column against a
        // 3-high column (three bits hard-wired to zero).
        let dense = Reducer::default().reduce(&ColumnProfile::from_heights(vec![6]));
        let pruned = Reducer::default().reduce(&ColumnProfile::from_heights(vec![3]));
        assert_eq!(dense.tree_full_adders - pruned.tree_full_adders, 1);
    }

    #[test]
    fn fa_ha_uses_half_adders_and_both_policies_terminate() {
        for heights in [vec![5u32, 4, 7], vec![9, 9, 9, 9], vec![2, 8, 1, 6]] {
            let p = ColumnProfile::from_heights(heights.clone());
            let fa = Reducer::new(ReductionKind::FaOnly).reduce(&p);
            let faha = Reducer::new(ReductionKind::FaHa).reduce(&p);
            assert_eq!(fa.tree_half_adders, 0);
            assert!(faha.final_profile.max_height() <= 2, "heights {heights:?}");
            assert!(fa.final_profile.max_height() <= 2, "heights {heights:?}");
            // An HA is cheaper than an FA, so FA-equivalents of the FaHa
            // policy never exceed the FaOnly cost by more than the carry
            // slack it introduces (one FA per HA placed, worst case).
            assert!(
                faha.fa_equivalent() <= fa.fa_equivalent() + f64::from(faha.half_adders()),
                "heights {heights:?}"
            );
        }
    }

    #[test]
    fn reduction_conserves_value_capacity() {
        // The maximum representable sum of the reduced profile must be at
        // least that of the original (3:2 compression is value-preserving).
        for heights in [vec![4u32, 4, 4], vec![7, 1, 3], vec![10]] {
            let p = ColumnProfile::from_heights(heights);
            let max_before: u64 = p.iter().map(|(c, h)| u64::from(h) << c).sum();
            let stats = Reducer::default().reduce(&p);
            let max_after: u64 = stats
                .final_profile
                .iter()
                .map(|(c, h)| u64::from(h) << c)
                .sum();
            assert!(max_after >= max_before);
        }
    }

    #[test]
    fn final_profile_is_at_most_two_high() {
        let p = ColumnProfile::from_heights(vec![9, 3, 17, 2, 5]);
        for kind in [ReductionKind::FaOnly, ReductionKind::FaHa] {
            let stats = Reducer::new(kind).reduce(&p);
            assert!(stats.final_profile.max_height() <= 2, "{kind:?}");
        }
    }

    #[test]
    fn deeper_columns_take_more_stages() {
        let shallow = Reducer::default().reduce(&ColumnProfile::from_heights(vec![3]));
        let deep = Reducer::default().reduce(&ColumnProfile::from_heights(vec![27]));
        assert!(deep.stages > shallow.stages);
    }

    #[test]
    fn fa_equivalent_weights_ha_as_half() {
        let stats = ReductionStats {
            tree_full_adders: 4,
            tree_half_adders: 2,
            cpa_full_adders: 1,
            cpa_half_adders: 1,
            stages: 2,
            final_profile: ColumnProfile::new(),
        };
        assert!((stats.fa_equivalent() - 6.5).abs() < 1e-12);
    }
}
