//! Pareto analysis: from the GA's estimated front to the true
//! hardware-evaluated front (paper Fig. 2, right half).
//!
//! The GA optimizes against the fast FA-count area estimate; the flow
//! then pushes every front member through the hardware model (our
//! stand-in for synthesis + power analysis) and re-evaluates accuracy
//! on the held-out test split, keeping only the designs that remain
//! non-dominated in (test error, synthesized area).

use serde::{Deserialize, Serialize};

use pe_hw::{ExactCostModel, HardwareReport};
use pe_mlp::{ax_to_hardware, AxMlp, FixedMlp};

/// The network realization behind a [`DesignPoint`].
///
/// Every [`SearchEngine`](crate::engine::SearchEngine) reports its
/// designs as `DesignPoint`s; this enum captures the structurally
/// different network families the engines produce.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DesignNetwork {
    /// The DATE'24 approximate MLP (power-of-two weights + bit masks) —
    /// the NSGA-II engine's native form.
    Ax(AxMlp),
    /// A fixed-point network with per-layer accumulator truncation —
    /// the TC'23 / TCAD'23 / plain-GA families.
    Truncated {
        /// The integer network.
        mlp: FixedMlp,
        /// Dropped low accumulator bits per layer (`0` = exact).
        trunc_bits: Vec<u32>,
    },
    /// A stochastic-computing design; only the evaluated metrics are
    /// retained (see `pe_baselines::ScMlp` for the generator).
    Stochastic,
}

impl DesignNetwork {
    /// The approximate MLP, when this design is one.
    #[must_use]
    pub fn ax(&self) -> Option<&AxMlp> {
        match self {
            DesignNetwork::Ax(mlp) => Some(mlp),
            _ => None,
        }
    }
}

/// One fully evaluated design point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignPoint {
    /// The network realization.
    pub network: DesignNetwork,
    /// Accuracy on the training split (the search's view).
    pub train_accuracy: f64,
    /// Accuracy on the held-out test split (reported, as in the paper).
    pub test_accuracy: f64,
    /// Search-time area estimate, in the units of the configured
    /// [`crate::fitness::AreaObjective`] for the GA engines (gate
    /// equivalents by default) and the evaluated cm² for post-training
    /// engines.
    pub estimated_area: f64,
    /// Hardware evaluation at the design's operating supply.
    pub report: HardwareReport,
}

impl DesignPoint {
    /// `true` if `self` Pareto-dominates `other` in
    /// (test error, synthesized area).
    #[must_use]
    pub fn dominates(&self, other: &DesignPoint) -> bool {
        let (e1, a1) = (1.0 - self.test_accuracy, self.report.area_cm2);
        let (e2, a2) = (1.0 - other.test_accuracy, other.report.area_cm2);
        (e1 <= e2 && a1 <= a2) && (e1 < e2 || a1 < a2)
    }
}

/// Evaluate a set of candidate networks in hardware through the
/// [`ExactCostModel`] and keep the true Pareto front.
///
/// The model defines the costing conditions (technology, supply
/// voltage): reports land at the model's scenario, so a 0.6 V study
/// produces a 0.6 V front. Returns the front sorted by ascending area.
/// `name_prefix` labels the costed circuits (e.g. the dataset name).
#[must_use]
pub fn true_pareto_front(
    candidates: Vec<DesignCandidate>,
    model: &ExactCostModel,
    name_prefix: &str,
) -> Vec<DesignPoint> {
    let mut points: Vec<DesignPoint> = candidates
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            let spec = ax_to_hardware(&c.mlp, format!("{name_prefix}_p{i}"));
            let report = model.report(&spec);
            DesignPoint {
                network: DesignNetwork::Ax(c.mlp),
                train_accuracy: c.train_accuracy,
                test_accuracy: c.test_accuracy,
                estimated_area: c.estimated_area,
                report,
            }
        })
        .collect();

    let keep: Vec<bool> = points
        .iter()
        .map(|p| !points.iter().any(|q| q.dominates(p)))
        .collect();
    let mut front: Vec<DesignPoint> = points
        .drain(..)
        .zip(keep)
        .filter_map(|(p, k)| k.then_some(p))
        .collect();
    front.sort_by(|a, b| {
        a.report
            .area_cm2
            .partial_cmp(&b.report.area_cm2)
            .expect("areas are finite")
    });
    front.dedup_by(|a, b| {
        (a.report.area_cm2 - b.report.area_cm2).abs() < 1e-12
            && (a.test_accuracy - b.test_accuracy).abs() < 1e-12
    });
    front
}

/// A candidate entering hardware analysis (accuracies already known).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DesignCandidate {
    /// The approximate network.
    pub mlp: AxMlp,
    /// Training-split accuracy.
    pub train_accuracy: f64,
    /// Test-split accuracy.
    pub test_accuracy: f64,
    /// GA-time area estimate (objective units).
    pub estimated_area: f64,
}

/// Pick the design the paper reports in Table II: the smallest-area
/// front member whose test accuracy is within `max_loss` of
/// `baseline_accuracy`.
///
/// Returns `None` if no front member meets the bound.
#[must_use]
pub fn select_within_loss(
    front: &[DesignPoint],
    baseline_accuracy: f64,
    max_loss: f64,
) -> Option<&DesignPoint> {
    select_within_budgets(front, baseline_accuracy, max_loss, None)
}

/// [`select_within_loss`] under an additional power budget: the
/// smallest-area front member within the accuracy-loss bound **and**
/// whose evaluated power fits `power_budget_mw` (inclusive boundary,
/// matching the Fig. 5 zone classifier). `None` as the budget imposes
/// no power constraint; `None` as the result means the feasible set is
/// empty — a real outcome for tight budgets, which callers must
/// surface rather than paper over.
#[must_use]
pub fn select_within_budgets(
    front: &[DesignPoint],
    baseline_accuracy: f64,
    max_loss: f64,
    power_budget_mw: Option<f64>,
) -> Option<&DesignPoint> {
    front
        .iter()
        .filter(|p| p.test_accuracy + 1e-12 >= baseline_accuracy - max_loss)
        .filter(|p| power_budget_mw.is_none_or(|budget| p.report.power_mw <= budget))
        .min_by(|a, b| {
            a.report
                .area_cm2
                .partial_cmp(&b.report.area_cm2)
                .expect("areas are finite")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_hw::{CostScenario, ExactCostModel};
    use pe_mlp::{AxLayer, AxNeuron, AxWeight};

    fn model() -> ExactCostModel {
        ExactCostModel::new(CostScenario::default())
    }

    fn tiny_mlp(mask: u16) -> AxMlp {
        // Three identical summands: every kept mask bit forms a 3-high
        // column, so area strictly grows with the mask's popcount.
        AxMlp {
            layers: vec![AxLayer {
                input_bits: 4,
                neurons: vec![
                    AxNeuron {
                        weights: vec![
                            AxWeight {
                                mask,
                                shift: 0,
                                negative: false
                            };
                            3
                        ],
                        bias: 0,
                    },
                    AxNeuron {
                        weights: vec![
                            AxWeight {
                                mask: 0,
                                shift: 0,
                                negative: false
                            };
                            3
                        ],
                        bias: 5,
                    },
                ],
                qrelu: None,
            }],
        }
    }

    fn candidate(mask: u16, test_acc: f64) -> DesignCandidate {
        DesignCandidate {
            mlp: tiny_mlp(mask),
            train_accuracy: test_acc,
            test_accuracy: test_acc,
            estimated_area: f64::from(mask.count_ones()),
        }
    }

    #[test]
    fn dominated_points_are_filtered() {
        let elab = model();
        // Full mask with *lower* accuracy is dominated by the cheaper,
        // more accurate pruned design.
        let front = true_pareto_front(
            vec![candidate(0b1111, 0.80), candidate(0b0011, 0.90)],
            &elab,
            "t",
        );
        assert_eq!(front.len(), 1);
        assert!((front[0].test_accuracy - 0.90).abs() < 1e-12);
    }

    #[test]
    fn trade_off_points_both_survive() {
        let elab = model();
        let front = true_pareto_front(
            vec![candidate(0b1111, 0.95), candidate(0b0001, 0.85)],
            &elab,
            "t",
        );
        assert_eq!(front.len(), 2);
        // Sorted by ascending area.
        assert!(front[0].report.area_cm2 <= front[1].report.area_cm2);
        assert!(front[0].test_accuracy < front[1].test_accuracy);
    }

    #[test]
    fn selection_honors_the_loss_budget() {
        let elab = model();
        let front = true_pareto_front(
            vec![
                candidate(0b1111, 0.95),
                candidate(0b0011, 0.92),
                candidate(0b0001, 0.70),
            ],
            &elab,
            "t",
        );
        let pick = select_within_loss(&front, 0.95, 0.05).expect("a design qualifies");
        assert!(
            (pick.test_accuracy - 0.92).abs() < 1e-12,
            "picked {}",
            pick.test_accuracy
        );
        assert!(select_within_loss(&front, 0.95, 0.001).is_some()); // the 0.95 one
        assert!(select_within_loss(&front, 2.0, 0.0).is_none());
    }

    #[test]
    fn selection_on_an_empty_front_is_none() {
        assert!(select_within_loss(&[], 0.9, 0.05).is_none());
        // Degenerate inputs stay well-defined too.
        assert!(select_within_loss(&[], 0.0, 1.0).is_none());
    }

    #[test]
    fn selection_when_every_candidate_exceeds_the_budget_is_none() {
        let elab = model();
        let front = true_pareto_front(
            vec![candidate(0b1111, 0.80), candidate(0b0001, 0.60)],
            &elab,
            "t",
        );
        assert_eq!(front.len(), 2);
        // Baseline 0.95, budget 5%: the floor is 0.90 and nothing reaches it.
        assert!(select_within_loss(&front, 0.95, 0.05).is_none());
    }

    #[test]
    fn selection_keeps_an_exact_tie_on_the_loss_boundary() {
        let elab = model();
        // 0.90 sits exactly on baseline − budget; the cheaper design at
        // the boundary must win over the pricier, more accurate one.
        let front = true_pareto_front(
            vec![candidate(0b1111, 0.95), candidate(0b0001, 0.90)],
            &elab,
            "t",
        );
        assert_eq!(front.len(), 2);
        let pick = select_within_loss(&front, 0.95, 0.05).expect("boundary design qualifies");
        assert!(
            (pick.test_accuracy - 0.90).abs() < 1e-12,
            "picked {}",
            pick.test_accuracy
        );
        assert!(pick.report.area_cm2 <= front[1].report.area_cm2);
    }

    #[test]
    fn power_budget_filters_the_selection() {
        let elab = model();
        // Full mask: big and accurate. Narrow mask: small and cheap.
        let front = true_pareto_front(
            vec![candidate(0b1111, 0.95), candidate(0b0001, 0.91)],
            &elab,
            "t",
        );
        assert_eq!(front.len(), 2);
        let (small, big) = (&front[0], &front[1]);
        assert!(small.report.power_mw < big.report.power_mw);

        // Unbudgeted: the small design already wins on area.
        let pick = select_within_budgets(&front, 0.95, 0.05, None).expect("selects");
        assert_eq!(pick.report.area_cm2, small.report.area_cm2);

        // A budget between the two powers forces the small design even
        // under a loss bound the big one also meets.
        let budget = (small.report.power_mw + big.report.power_mw) / 2.0;
        let pick = select_within_budgets(&front, 0.95, 0.05, Some(budget)).expect("selects");
        assert_eq!(pick.report.area_cm2, small.report.area_cm2);

        // Exactly on the boundary: inclusive, the design still counts.
        let pick = select_within_budgets(&front, 0.95, 0.05, Some(small.report.power_mw))
            .expect("boundary is inclusive");
        assert_eq!(pick.report.area_cm2, small.report.area_cm2);
    }

    #[test]
    fn power_budget_with_empty_feasible_set_is_none() {
        let elab = model();
        let front = true_pareto_front(
            vec![candidate(0b1111, 0.95), candidate(0b0001, 0.91)],
            &elab,
            "t",
        );
        assert_eq!(front.len(), 2);
        // A budget below every design's draw: nothing qualifies, and
        // the selection reports that honestly.
        let tiny = front[0].report.power_mw / 1e6;
        assert!(select_within_budgets(&front, 0.95, 0.05, Some(tiny)).is_none());
        // Both constraints empty at once stays well-defined.
        assert!(select_within_budgets(&front, 2.0, 0.0, Some(tiny)).is_none());
        assert!(select_within_budgets(&[], 0.9, 0.05, Some(1.0)).is_none());
    }

    #[test]
    fn network_accessor_distinguishes_families() {
        let ax = DesignNetwork::Ax(tiny_mlp(1));
        assert!(ax.ax().is_some());
        let fixed = DesignNetwork::Truncated {
            mlp: pe_mlp::FixedMlp {
                input_bits: 4,
                layers: vec![],
            },
            trunc_bits: vec![],
        };
        assert!(fixed.ax().is_none());
        assert!(DesignNetwork::Stochastic.ax().is_none());
    }
}
