//! Environmental selection (Deb et al. 2002): non-dominated ranks,
//! crowding distance and the (μ+λ) truncation.
//!
//! When every member has at most two objectives — the GA's (error,
//! area) and the plain GA's (error) — ranks come from a sort and a
//! sweep in O(N log N) (Jensen 2003; the efficient non-dominated sort of
//! Zhang et al. 2015). Feasible members are sorted lexicographically by
//! their objectives, a missing second objective counting as a constant,
//! and each joins the first front whose last-placed member does not
//! dominate it, found by binary search. Infeasible members follow every
//! feasible front, one front per distinct violation, lowest first, as
//! Deb's constrained domination orders them. With three or more
//! objectives the O(MN²) pairwise sort of the NSGA-II paper runs; it is
//! also the oracle the sweep is tested against.
//!
//! # Front order
//!
//! The order of each front's member list is part of the determinism
//! contract: the crowding and truncation sorts are stable, and
//! tournament indices follow survivor order. Both paths list fronts as
//! the pairwise sort does:
//!
//! * front 0 is in index order;
//! * front k + 1 lists its members by (the position in front k's list of
//!   their last dominator in front k, index), because a member joins the
//!   next front when its last dominator is processed and each member's
//!   dominated set is filled in index order;
//! * every infeasible front is in index order, because every member of
//!   the previous front dominates each of its members.

use crate::individual::Individual;
use crate::problem::constrained_dominates;

/// Rank `pop`, set every member's `rank` and `crowding`, and return the
/// fronts as index lists (front 0 first).
///
/// # Panics
///
/// Panics if members differ in their number of objectives, or if an
/// objective or a violation is NaN.
pub(crate) fn annotate(pop: &mut [Individual]) -> Vec<Vec<usize>> {
    let m = pop.first().map_or(0, |i| i.evaluation.objectives.len());
    // One flat row per member; rows of fewer than two objectives are
    // padded with the constant 0.0 for the sweep.
    let stride = m.max(2);
    let mut keys = vec![0.0; pop.len() * stride];
    for (row, ind) in keys.chunks_exact_mut(stride).zip(pop.iter()) {
        row[..m].copy_from_slice(&ind.evaluation.objectives);
    }
    let fronts = if m <= 2 {
        sweep_sort(pop, &keys)
    } else {
        fast_non_dominated_sort(pop)
    };
    for front in &fronts {
        assign_crowding(pop, front, &keys, stride, m);
    }
    fronts
}

/// Keep the best `mu` members of `pop`: whole fronts while they fit,
/// then the spilling front's largest crowding distances. The survivors
/// are moved out of the pool in that order.
pub(crate) fn select_mu(mut pop: Vec<Individual>, mu: usize) -> Vec<Individual> {
    let fronts = annotate(&mut pop);
    let mut picked: Vec<usize> = Vec::with_capacity(mu);
    for mut front in fronts {
        if picked.len() + front.len() <= mu {
            picked.extend(front);
        } else {
            front.sort_by(|&a, &b| {
                pop[b]
                    .crowding
                    .partial_cmp(&pop[a].crowding)
                    .expect("crowding is never NaN")
            });
            let room = mu - picked.len();
            picked.extend(front.into_iter().take(room));
            break;
        }
    }
    let mut pool: Vec<Option<Individual>> = pop.into_iter().map(Some).collect();
    picked
        .into_iter()
        .map(|i| pool[i].take().expect("a member survives at most once"))
        .collect()
}

/// Total order on values that are never NaN.
fn cmp(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b)
        .expect("objectives and violations are never NaN")
}

/// Rank a pool whose `keys` hold two objectives per member, set every
/// member's `rank`, and return the fronts listed in the pairwise sort's
/// order (see the module docs).
fn sweep_sort(pop: &mut [Individual], keys: &[f64]) -> Vec<Vec<usize>> {
    let key = |i: usize| (keys[2 * i], keys[2 * i + 1]);
    let dominates = |a: usize, b: usize| {
        let ((a0, a1), (b0, b1)) = (key(a), key(b));
        a0 <= b0 && a1 <= b1 && (a0 < b0 || a1 < b1)
    };
    let (mut feasible, mut infeasible): (Vec<usize>, Vec<usize>) =
        (0..pop.len()).partition(|&i| pop[i].evaluation.is_feasible());

    // The sweep. Within a front, members are placed in lexicographic
    // order, so their first objective rises and their second falls: the
    // last-placed member dominates a newcomer whenever any member does,
    // and the fronts that dominate it form a prefix.
    feasible.sort_by(|&a, &b| cmp(key(a).0, key(b).0).then_with(|| cmp(key(a).1, key(b).1)));
    let mut sweep: Vec<Vec<usize>> = Vec::new();
    for &i in &feasible {
        let k = sweep
            .partition_point(|front| dominates(*front.last().expect("fronts are non-empty"), i));
        if k == sweep.len() {
            sweep.push(Vec::new());
        }
        sweep[k].push(i);
    }

    // Each front's list order. A member's dominators in the previous
    // front are a contiguous run of its lexicographic order: a prefix
    // has the first objective at most the member's, a suffix the
    // second.
    let mut fronts: Vec<Vec<usize>> = Vec::with_capacity(sweep.len());
    let mut position = vec![0; pop.len()];
    for (k, members) in sweep.iter().enumerate() {
        let list: Vec<usize> = if k == 0 {
            let mut list = members.clone();
            list.sort_unstable();
            list
        } else {
            let previous = &sweep[k - 1];
            let mut by_last: Vec<(usize, usize)> = members
                .iter()
                .map(|&q| {
                    let (q0, q1) = key(q);
                    let end = previous.partition_point(|&x| key(x).0 <= q0);
                    let start = previous.partition_point(|&x| key(x).1 > q1);
                    let last = previous[start..end]
                        .iter()
                        .map(|&x| position[x])
                        .max()
                        .expect("a member of front k + 1 has a dominator in front k");
                    (last, q)
                })
                .collect();
            by_last.sort_unstable();
            by_last.into_iter().map(|(_, q)| q).collect()
        };
        for (p, &i) in list.iter().enumerate() {
            position[i] = p;
        }
        fronts.push(list);
    }

    // The stable sort keeps each violation's members in index order.
    let violation = |i: usize| pop[i].evaluation.violation;
    infeasible.sort_by(|&a, &b| cmp(violation(a), violation(b)));
    fronts.extend(
        infeasible
            .chunk_by(|&a, &b| violation(a) == violation(b))
            .map(<[usize]>::to_vec),
    );
    for (rank, front) in fronts.iter().enumerate() {
        for &i in front {
            pop[i].rank = rank;
        }
    }
    fronts
}

/// Assign `rank` to every individual and return the fronts as index
/// lists (front 0 first). Runs the O(MN²) fast non-dominated sort of
/// the NSGA-II paper, with constrained domination: the path for three
/// or more objectives, and the sweep's oracle.
fn fast_non_dominated_sort(pop: &mut [Individual]) -> Vec<Vec<usize>> {
    let n = pop.len();
    let mut dominates: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut dominated_count = vec![0usize; n];
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut first = Vec::new();

    for p in 0..n {
        for q in (p + 1)..n {
            if constrained_dominates(&pop[p].evaluation, &pop[q].evaluation) {
                dominates[p].push(q);
                dominated_count[q] += 1;
            } else if constrained_dominates(&pop[q].evaluation, &pop[p].evaluation) {
                dominates[q].push(p);
                dominated_count[p] += 1;
            }
        }
    }
    for (p, &c) in dominated_count.iter().enumerate() {
        if c == 0 {
            pop[p].rank = 0;
            first.push(p);
        }
    }
    fronts.push(first);

    let mut i = 0;
    while !fronts[i].is_empty() {
        let mut next = Vec::new();
        for &p in &fronts[i] {
            for &q in &dominates[p] {
                dominated_count[q] -= 1;
                if dominated_count[q] == 0 {
                    pop[q].rank = i + 1;
                    next.push(q);
                }
            }
        }
        i += 1;
        fronts.push(next);
    }
    fronts.pop();
    fronts
}

/// Assign crowding distances over objectives `0..m` to the individuals
/// of one front, reading objective `obj` of member `i` at
/// `keys[i * stride + obj]`.
fn assign_crowding(pop: &mut [Individual], front: &[usize], keys: &[f64], stride: usize, m: usize) {
    for &i in front {
        pop[i].crowding = 0.0;
    }
    if front.len() <= 2 {
        for &i in front {
            pop[i].crowding = f64::INFINITY;
        }
        return;
    }
    let mut order: Vec<usize> = front.to_vec();
    for obj in 0..m {
        let value = |i: usize| keys[i * stride + obj];
        order.copy_from_slice(front);
        order.sort_by(|&a, &b| cmp(value(a), value(b)));
        let (first, last) = (order[0], order[order.len() - 1]);
        let span = value(last) - value(first);
        pop[first].crowding = f64::INFINITY;
        pop[last].crowding = f64::INFINITY;
        if span <= 0.0 {
            continue;
        }
        for w in order.windows(3) {
            let (prev, mid, next) = (w[0], w[1], w[2]);
            let delta = (value(next) - value(prev)) / span;
            if pop[mid].crowding.is_finite() {
                pop[mid].crowding += delta;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::Evaluation;
    use proptest::prelude::*;

    fn ind(objs: &[f64]) -> Individual {
        Individual::new(vec![], Evaluation::feasible(objs.to_vec()))
    }

    /// The fronts of `pop`, checked equal on the sweep and the pairwise
    /// oracle.
    fn fronts_of(pop: &[Individual]) -> Vec<Vec<usize>> {
        let fronts = annotate(&mut pop.to_vec());
        assert_eq!(fronts, fast_non_dominated_sort(&mut pop.to_vec()));
        fronts
    }

    /// The oracle's crowding distance, reading each member's own
    /// objectives.
    fn reference_crowding(pop: &mut [Individual], front: &[usize]) {
        for &i in front {
            pop[i].crowding = 0.0;
        }
        if front.len() <= 2 {
            for &i in front {
                pop[i].crowding = f64::INFINITY;
            }
            return;
        }
        let m = pop[front[0]].evaluation.objectives.len();
        for obj in 0..m {
            let mut order: Vec<usize> = front.to_vec();
            order.sort_by(|&a, &b| {
                pop[a].evaluation.objectives[obj]
                    .partial_cmp(&pop[b].evaluation.objectives[obj])
                    .expect("objectives must be finite")
            });
            let lo = pop[order[0]].evaluation.objectives[obj];
            let hi = pop[*order.last().expect("front non-empty")]
                .evaluation
                .objectives[obj];
            let span = hi - lo;
            pop[order[0]].crowding = f64::INFINITY;
            pop[*order.last().expect("front non-empty")].crowding = f64::INFINITY;
            if span <= 0.0 {
                continue;
            }
            for w in order.windows(3) {
                let (prev, mid, next) = (w[0], w[1], w[2]);
                let delta = (pop[next].evaluation.objectives[obj]
                    - pop[prev].evaluation.objectives[obj])
                    / span;
                if pop[mid].crowding.is_finite() {
                    pop[mid].crowding += delta;
                }
            }
        }
    }

    /// The oracle's ranks, crowding and fronts.
    fn reference_annotate(pop: &mut [Individual]) -> Vec<Vec<usize>> {
        let fronts = fast_non_dominated_sort(pop);
        for front in &fronts {
            reference_crowding(pop, front);
        }
        fronts
    }

    /// The oracle's truncation: whole fronts, then the spilling front by
    /// crowding, cloning each survivor.
    fn reference_select(mut pop: Vec<Individual>, mu: usize) -> Vec<Individual> {
        let fronts = reference_annotate(&mut pop);
        let mut selected: Vec<Individual> = Vec::with_capacity(mu);
        for front in fronts {
            if selected.len() + front.len() <= mu {
                selected.extend(front.iter().map(|&i| pop[i].clone()));
            } else {
                let mut spill: Vec<usize> = front;
                spill.sort_by(|&a, &b| {
                    pop[b]
                        .crowding
                        .partial_cmp(&pop[a].crowding)
                        .expect("crowding is never NaN")
                });
                for &i in spill.iter().take(mu - selected.len()) {
                    selected.push(pop[i].clone());
                }
                break;
            }
        }
        selected
    }

    #[test]
    fn sorts_into_expected_fronts() {
        // (1,1) dominates every other member; (2,2) and (1,3) are
        // mutually non-dominated, and both dominate (3,3).
        let pop = vec![
            ind(&[1.0, 1.0]),
            ind(&[2.0, 2.0]),
            ind(&[3.0, 3.0]),
            ind(&[1.0, 3.0]),
        ];
        assert_eq!(fronts_of(&pop), [vec![0], vec![1, 3], vec![2]]);
    }

    #[test]
    fn a_later_front_follows_its_last_dominators() {
        // Front 0 is [1, 2]. Member 0 is dominated only by member 2 (list
        // position 1) and member 3 only by member 1 (position 0), so
        // front 1 lists 3 before 0. Member 4's last dominator in front 1
        // is member 0.
        let pop = vec![
            ind(&[5.0, 2.0]),
            ind(&[1.0, 4.0]),
            ind(&[4.0, 1.0]),
            ind(&[2.0, 5.0]),
            ind(&[6.0, 6.0]),
        ];
        assert_eq!(fronts_of(&pop), [vec![1, 2], vec![3, 0], vec![4]]);
    }

    #[test]
    fn three_objectives_take_the_pairwise_sort() {
        // On the first two objectives alone, member 1 would dominate
        // member 0.
        let pop = vec![
            ind(&[2.0, 2.0, 1.0]),
            ind(&[1.0, 1.0, 5.0]),
            ind(&[3.0, 3.0, 6.0]),
        ];
        assert_eq!(fronts_of(&pop), [vec![0, 1], vec![2]]);
    }

    #[test]
    fn non_dominated_set_is_one_front() {
        let pop = vec![
            ind(&[1.0, 4.0]),
            ind(&[2.0, 3.0]),
            ind(&[3.0, 2.0]),
            ind(&[4.0, 1.0]),
        ];
        assert_eq!(fronts_of(&pop), [vec![0, 1, 2, 3]]);
    }

    #[test]
    fn infeasible_individuals_rank_behind_feasible() {
        let pop = vec![
            Individual::new(vec![], Evaluation::infeasible(vec![0.0, 0.0], 1.0)),
            ind(&[9.0, 9.0]),
            Individual::new(vec![], Evaluation::infeasible(vec![5.0, 5.0], 0.5)),
            Individual::new(vec![], Evaluation::infeasible(vec![1.0, 1.0], 1.0)),
        ];
        assert_eq!(fronts_of(&pop), [vec![1], vec![2], vec![0, 3]]);
    }

    #[test]
    fn crowding_rewards_boundary_and_spread() {
        let mut pop = vec![
            ind(&[1.0, 4.0]),
            ind(&[2.0, 3.0]),
            ind(&[2.1, 2.9]),
            ind(&[4.0, 1.0]),
        ];
        assert_eq!(annotate(&mut pop), [vec![0, 1, 2, 3]]);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[3].crowding.is_infinite());
        // Individual 1 sits in a sparser neighbourhood than 2.
        assert!(pop[1].crowding > 0.0 && pop[2].crowding > 0.0);
    }

    #[test]
    fn small_fronts_get_infinite_crowding() {
        let mut pop = vec![ind(&[1.0, 2.0]), ind(&[2.0, 1.0])];
        assert_eq!(annotate(&mut pop), [vec![0, 1]]);
        assert!(pop[0].crowding.is_infinite());
        assert!(pop[1].crowding.is_infinite());
    }

    /// A selection pool of `0..=320` members with one or two objectives
    /// on a small integer grid (ties and duplicate vectors), zeros of
    /// either sign, and infeasible members with repeated violations
    /// (none, some, or all of the pool). Member `i` carries gene `i`.
    fn pool() -> impl Strategy<Value = Vec<Individual>> {
        (0usize..=320, 1usize..=2, 1u32..=12, 0u32..=2).prop_flat_map(|(n, m, grid, mix)| {
            let objective = (0..grid, any::<bool>());
            let infeasible = match mix {
                0 => 0u32..1,
                1 => 0u32..8,
                _ => 4u32..8,
            };
            proptest::collection::vec((proptest::collection::vec(objective, m), infeasible), n)
                .prop_map(|members| {
                    members
                        .into_iter()
                        .enumerate()
                        .map(|(i, (objectives, level))| {
                            let objectives = objectives
                                .into_iter()
                                .map(|(v, negative)| {
                                    let v = f64::from(v);
                                    if negative {
                                        -v
                                    } else {
                                        v
                                    }
                                })
                                .collect();
                            let gene = u32::try_from(i).expect("small pool");
                            // Levels 4..8 are infeasible, with violations
                            // 0.5, 1.0, 1.5 and 2.0.
                            let evaluation = if level < 4 {
                                Evaluation::feasible(objectives)
                            } else {
                                Evaluation::infeasible(objectives, f64::from(level - 3) * 0.5)
                            };
                            Individual::new(vec![gene], evaluation)
                        })
                        .collect()
                })
        })
    }

    fn crowding_bits(pop: &[Individual]) -> Vec<u64> {
        pop.iter().map(|i| i.crowding.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn the_sweep_matches_the_pairwise_oracle(pop in pool()) {
            let mut swept = pop.clone();
            let mut oracle = pop;
            let fronts = annotate(&mut swept);
            prop_assert_eq!(&fronts, &reference_annotate(&mut oracle));
            let ranks: Vec<usize> = swept.iter().map(|i| i.rank).collect();
            let oracle_ranks: Vec<usize> = oracle.iter().map(|i| i.rank).collect();
            prop_assert_eq!(ranks, oracle_ranks);
            prop_assert_eq!(crowding_bits(&swept), crowding_bits(&oracle));
        }

        #[test]
        fn select_mu_moves_the_reference_survivors(pop in pool()) {
            let mu = pop.len() / 2;
            let survivors = select_mu(pop.clone(), mu);
            let reference = reference_select(pop, mu);
            prop_assert_eq!(survivors.len(), reference.len());
            for (got, want) in survivors.iter().zip(&reference) {
                prop_assert_eq!(&got.genes, &want.genes);
                prop_assert_eq!(got.rank, want.rank);
                prop_assert_eq!(got.crowding.to_bits(), want.crowding.to_bits());
            }
        }
    }
}
