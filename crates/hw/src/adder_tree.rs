//! Bit-exact elaboration of multi-operand adder trees.
//!
//! [`TreeBuilder`] wires real full adders over per-column bit queues,
//! following the same FA-only stage policy as
//! [`pe_arith::reduce::reduce`]. It is the independent oracle of the
//! analytic model: the FA counts, depth and tie cells of the elaborated
//! netlist equal those of [`pe_arith::tree_gates`], the model the GA
//! trains against and every report is costed by (checked by tests in
//! this module and in `tests/`), so the "synthesis" step can only
//! rescale costs, never reorder designs structurally.

use std::collections::VecDeque;

use crate::netlist::{NetId, Netlist};

/// The two rows produced by a compression tree, ready for the final
/// carry-propagate addition, plus the resulting sum bits.
#[derive(Debug, Clone)]
pub struct TreeSum {
    /// Final sum bits, least significant first (one net per column).
    pub sum_bits: Vec<NetId>,
    /// Number of compressor stages the tree needed.
    pub stages: u32,
}

/// Builds FA-only adder trees inside a [`Netlist`] from per-column bit
/// queues.
#[derive(Debug, Clone, Copy, Default)]
pub struct TreeBuilder;

impl TreeBuilder {
    /// Reduce `columns` (a queue of nets per bit position) to a final sum.
    ///
    /// Stage by stage, every column of height ≥ 3 feeds `⌊h/3⌋` FAs.
    /// Once every column is at most two nets high, a ripple
    /// carry-propagate pass produces one sum bit per column.
    ///
    /// Returns the sum bits (LSB first). Empty columns yield constant-0
    /// sum bits.
    pub fn reduce(&self, netlist: &mut Netlist, mut columns: Vec<VecDeque<NetId>>) -> TreeSum {
        let mut stages = 0u32;
        while columns.iter().any(|c| c.len() > 2) {
            stages += 1;
            let mut next: Vec<VecDeque<NetId>> = vec![VecDeque::new(); columns.len() + 1];
            for (ci, col) in columns.iter_mut().enumerate() {
                let h = col.len();
                let fas = h / 3;
                for _ in 0..fas {
                    let a = col.pop_front().expect("height accounted");
                    let b = col.pop_front().expect("height accounted");
                    let c = col.pop_front().expect("height accounted");
                    let (sum, carry) = netlist.full_adder(a, b, c);
                    next[ci].push_back(sum);
                    next[ci + 1].push_back(carry);
                }
                while let Some(bit) = col.pop_front() {
                    next[ci].push_back(bit);
                }
            }
            while next.last().is_some_and(VecDeque::is_empty) {
                next.pop();
            }
            columns = next;
        }

        // Final ripple carry-propagate pass. The (1 bit + carry) and
        // (2 bits, no carry) cases still instantiate an FA (third input
        // tied low), matching the paper's FA-only assumption.
        let mut sum_bits = Vec::with_capacity(columns.len());
        let mut carry: Option<NetId> = None;
        for col in &mut columns {
            let h = col.len();
            match (h, carry) {
                (0, None) => sum_bits.push(netlist.const_zero()),
                (0, Some(c)) => {
                    sum_bits.push(c);
                    carry = None;
                }
                (1, None) => {
                    let bit = col.pop_front().expect("height 1");
                    sum_bits.push(bit);
                }
                (1, Some(_)) | (2, None) => {
                    let a = col.pop_front().expect("height 1 or 2");
                    let b = carry.or_else(|| col.pop_front()).expect("height 2");
                    let zero = netlist.const_zero();
                    let (s, co) = netlist.full_adder(a, b, zero);
                    sum_bits.push(s);
                    carry = Some(co);
                }
                (2, Some(c)) => {
                    let a = col.pop_front().expect("height 2");
                    let b = col.pop_front().expect("height 2");
                    let (s, co) = netlist.full_adder(a, b, c);
                    sum_bits.push(s);
                    carry = Some(co);
                }
                _ => unreachable!("columns are at most 2 high after reduction"),
            }
        }
        if let Some(c) = carry {
            sum_bits.push(c);
        }

        TreeSum { sum_bits, stages }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tech::Cell;

    /// Fresh nets stacked to the given column heights.
    fn columns_of(netlist: &mut Netlist, heights: &[u32]) -> Vec<VecDeque<NetId>> {
        heights
            .iter()
            .map(|&h| (0..h).map(|_| netlist.net()).collect())
            .collect()
    }

    #[test]
    fn netlist_counts_match_reducer_for_known_shapes() {
        for heights in [
            vec![3u32],
            vec![2, 2, 2],
            vec![9, 3, 17, 2, 5],
            vec![6, 6, 6, 6, 6, 6],
            vec![1],
            vec![0, 0, 4],
        ] {
            let mut netlist = Netlist::new();
            let columns = columns_of(&mut netlist, &heights);
            let tree = TreeBuilder.reduce(&mut netlist, columns);
            let stats = pe_arith::reduce::reduce(&mut heights.clone());
            let counts = netlist.cell_counts();
            assert_eq!(counts.get(Cell::Fa), stats.full_adders(), "{heights:?}");
            assert_eq!(tree.stages, stats.stages, "{heights:?}");
            assert_eq!(tree.sum_bits.len() as u32, stats.sum_bits, "{heights:?}");
            assert_eq!(counts.get(Cell::TieLo) == 1, stats.ties_low, "{heights:?}");
        }
    }

    #[test]
    fn sum_width_covers_max_value() {
        // Reducing columns representing value capacity must produce
        // enough sum bits for the maximum representable total.
        let heights = [5u32, 5, 5];
        let max: u64 = (0..).zip(heights).map(|(c, h)| u64::from(h) << c).sum();
        let mut netlist = Netlist::new();
        let columns = columns_of(&mut netlist, &heights);
        let tree = TreeBuilder.reduce(&mut netlist, columns);
        let capacity = (1u64 << tree.sum_bits.len()) - 1;
        assert!(
            capacity >= max,
            "sum bits {} max {max}",
            tree.sum_bits.len()
        );
    }

    #[test]
    fn empty_tree_yields_no_cells() {
        let mut netlist = Netlist::new();
        let tree = TreeBuilder.reduce(&mut netlist, Vec::new());
        assert!(tree.sum_bits.is_empty());
        assert_eq!(netlist.cell_counts().total(), 0);
    }

    #[test]
    fn single_bit_is_wiring_only() {
        let mut netlist = Netlist::new();
        let n = netlist.net();
        let tree = TreeBuilder.reduce(&mut netlist, vec![VecDeque::from([n])]);
        assert_eq!(tree.sum_bits, vec![n]);
        assert_eq!(netlist.cell_counts().total(), 0);
    }
}
