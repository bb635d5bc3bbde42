//! The FA-only compression-tree model: reduce column heights to two
//! rows and count the full adders consumed.
//!
//! The DATE'24 paper's area proxy (§III-C) assumes FA-only 3:2
//! reduction: "Each FA performs a 3-to-2 reduction ... Reduction is
//! repeated until only two bits remain in each column", followed by a
//! final carry-propagate addition of the two remaining rows. [`reduce`]
//! implements that model for [`crate::tree_gates`]; `pe-hw`'s
//! `TreeBuilder` wires the same policy gate by gate.
//!
//! The heights travel in 16-bit lanes, four columns to a `u64` word
//! (`Lanes`), so a stage is a few word operations per four columns
//! with no branch per column: `⌊h/3⌋` is `(h · 171) ≫ 9` in every lane
//! at once. The carry-propagate adder is counted in closed form from
//! two column masks.

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

/// The lowest 16-bit lane bit of each of a word's four lanes.
const LOW: u64 = 0x0001_0001_0001_0001;

/// The tallest column a lane stage reduces exactly: `(h · 171) ≫ 9` is
/// `⌊h/3⌋` and `h · 171` stays inside the 16-bit lane up to here.
/// Taller columns, which need more than 382 summand bits in one
/// column, first take plain stages.
const LANE_MAX: u32 = 383;

/// Words a [`Lanes`] holds: 80 columns, room for any accumulator of up
/// to 63 bits and the columns its reduction adds (the bit length of its
/// tallest column, at most 383 high, and a carry word). [`reduce`]
/// takes longer profiles to the heap.
pub(crate) const WORDS: usize = 20;

/// Column heights in 16-bit lanes, four columns to a word, column 0 in
/// the low lane of word 0; every lane past the profile is 0. `len` is
/// the profile's column count, and `settled` the stages already taken
/// column by column (see [`Lanes::settle`]).
#[derive(Debug, Clone)]
pub(crate) struct Lanes {
    pub(crate) words: [u64; WORDS],
    pub(crate) len: usize,
    settled: ReductionStats,
}

impl Lanes {
    /// The empty profile.
    pub(crate) fn new() -> Self {
        Self {
            words: [0; WORDS],
            len: 0,
            settled: ReductionStats::default(),
        }
    }

    /// Take `heights` into the lanes, after the plain stages its
    /// columns taller than `LANE_MAX` need, if any. The settled profile
    /// must fit the lanes, as any profile of an accumulator of up to 63
    /// bits does.
    pub(crate) fn settle(&mut self, heights: &mut Vec<u32>) {
        *self = Self::new();
        settle_tall(heights, &mut self.settled);
        for (c, &h) in heights.iter().enumerate() {
            self.words[c / 4] |= u64::from(h) << (16 * (c % 4));
        }
        self.len = heights.len();
    }

    /// Reduce the profile until every column holds at most two bits,
    /// then cost the final carry-propagate adder, as [`reduce`] does.
    /// The columns must fit the lanes: each at most `LANE_MAX` high,
    /// and `len` plus the bit length of the tallest below `WORDS · 4`.
    #[inline]
    pub(crate) fn reduce(&mut self) -> ReductionStats {
        let mut stats = self.settled;
        self.len = stages(&mut self.words, self.len, &mut stats);
        carry_propagate(&self.words, self.len, &mut stats);
        stats
    }
}

/// Reduce `heights` (column 0 first) until every column holds at most
/// two bits, then cost the final two-row carry-propagate adder, leaving
/// the two rows in `heights`.
///
/// The model is stage-based: in each stage every column of height
/// `h ≥ 3` feeds `⌊h/3⌋` full adders, each consuming 3 bits and
/// producing a sum bit in place and a carry one column left. Stages
/// repeat until all columns are ≤ 2 high; each stage trims the
/// profile's trailing empty columns.
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
    settle_tall(heights, &mut stats);
    let tallest = heights.iter().copied().max().unwrap_or(0);
    // The reduction never carries past the bit length of the profile's
    // value capacity, below `2^(len + bits(tallest))`.
    let need = (heights.len() + (32 - tallest.leading_zeros()) as usize) / 4 + 1;
    let mut stack = [0u64; WORDS];
    let mut heap = Vec::new();
    let words: &mut [u64] = if need <= WORDS {
        &mut stack[..need]
    } else {
        heap.resize(need, 0);
        &mut heap
    };
    for (c, &h) in heights.iter().enumerate() {
        words[c / 4] |= u64::from(h) << (16 * (c % 4));
    }
    let len = stages(words, heights.len(), &mut stats);
    carry_propagate(words, len, &mut stats);
    heights.clear();
    heights.extend((0..len).map(|c| (words[c / 4] >> (16 * (c % 4)) & 0xFFFF) as u32));
    stats
}

/// Plain stages, column by column, while some column is taller than
/// the lanes hold (`LANE_MAX`): no network here builds one.
fn settle_tall(heights: &mut Vec<u32>, stats: &mut ReductionStats) {
    while heights.iter().any(|&h| h > LANE_MAX) {
        stats.stages += 1;
        let mut carry_in = 0u32;
        for h in &mut *heights {
            let fas = *h / 3;
            stats.tree_full_adders += fas;
            *h = fas + *h % 3 + carry_in;
            carry_in = fas;
        }
        heights.push(carry_in);
        while heights.last() == Some(&0) {
            heights.pop();
        }
    }
}

/// Whether some lane of `word` holds 3 or more (every lane at most
/// `LANE_MAX`, so adding `0x7FFD` never carries out of a lane).
#[inline]
fn any_tall(word: u64) -> bool {
    word.wrapping_add(0x7FFD * LOW) & (0x8000 * LOW) != 0
}

/// The 3:2 stages over the first `len` columns of `words`, every lane
/// at once: `⌊h/3⌋` full adders per column leave `h − 2⌊h/3⌋` bits
/// there and send `⌊h/3⌋` carries one lane up (across words through
/// the top lane). Returns the profile's column count: `len` without a
/// stage, else the columns up to the top non-empty one.
#[inline]
fn stages(words: &mut [u64], len: usize, stats: &mut ReductionStats) -> usize {
    let mut used = len.div_ceil(4);
    if !words[..used].iter().any(|&w| any_tall(w)) {
        return len;
    }
    loop {
        stats.stages += 1;
        let (mut carry, mut tall, mut fas_total) = (0u64, false, 0u64);
        for word in &mut words[..used] {
            let h = *word;
            let fas = (h.wrapping_mul(171) >> 9) & (0x007F * LOW);
            let kept = h - 2 * fas;
            let next = kept + (fas << 16 | carry);
            carry = fas >> 48;
            // The four lanes' FA counts, summed in the top lane.
            fas_total += fas.wrapping_mul(LOW) >> 48;
            tall |= any_tall(next);
            *word = next;
        }
        if carry != 0 {
            words[used] = carry;
            used += 1;
            tall |= any_tall(carry);
        }
        stats.tree_full_adders += fas_total as u32;
        if !tall {
            break;
        }
    }
    let top = words[..used].iter().rposition(|&w| w != 0);
    top.map_or(0, |i| 4 * i + 4 - words[i].leading_zeros() as usize / 16)
}

/// The final two-row carry-propagate adder over columns `0..len`, each
/// at most 2 high, in closed form. With `P` the mask of non-empty
/// columns and `G` the mask of two-high ones, column `c` passes a carry
/// on exactly when it holds two bits, or one bit and an incoming carry:
/// the carries of the binary sum `S = P + G`. Each column with a
/// carry-out is one FA; the adder ties a net low wherever a column's
/// sum bit would be a constant 0 (an empty column without a carry, one
/// bit with a carry, two without), which is exactly where `S` has a 0
/// bit; and it has a sum bit per column plus the carry out of the top.
/// Taken 64 columns at a time, carrying between the chunks.
#[inline]
fn carry_propagate(words: &[u64], len: usize, stats: &mut ReductionStats) {
    let mut carry_in = 0u128;
    for (chunk, group) in words[..len.div_ceil(4)].chunks(16).enumerate() {
        let (mut p, mut g) = (0u64, 0u64);
        for (i, &w) in group.iter().enumerate() {
            p |= column_bits(w | w >> 1) << (4 * i);
            g |= column_bits(w >> 1) << (4 * i);
        }
        let sum = u128::from(p) + u128::from(g) + carry_in;
        // Bit `i` is the carry into column `64 · chunk + i`.
        let carries = sum ^ u128::from(p) ^ u128::from(g);
        let columns = (len - 64 * chunk).min(64);
        let inside = u128::MAX >> (128 - columns);
        stats.cpa_full_adders += (carries >> 1 & inside).count_ones();
        stats.ties_low |= !sum & inside != 0;
        carry_in = sum >> 64;
        if columns < 64 || 64 * (chunk + 1) == len {
            stats.sum_bits = len as u32 + (carries >> columns & 1) as u32;
        }
    }
}

/// The low bit of each of `word`'s four lanes, packed into a nibble
/// (lane 0 in bit 0).
#[inline]
fn column_bits(word: u64) -> u64 {
    // Lane bit 16·i moves to bit 48 + i; no other product reaches
    // bits 48–51.
    let bits = word & LOW;
    bits.wrapping_mul(1 << 48 | 1 << 33 | 1 << 18 | 1 << 3) >> 48 & 0xF
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
