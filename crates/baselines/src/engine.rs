//! [`SearchEngine`] adapters for the three prior-work methods, so the
//! staged pipeline and the `pe-bench` experiments iterate ours and the
//! state of the art through one interface (Fig. 4's comparison becomes
//! a loop over engines instead of hand-wired glue).
//!
//! Each engine runs its method's search/conversion against the shared
//! [`SearchContext`] and reports a single evaluated [`DesignPoint`]
//! (these methods produce one design per budget, not a front).

use std::time::Instant;

use pe_hw::VddModel;
use printed_axc::{
    fingerprint_json, DesignNetwork, DesignPoint, FlowError, RunControl, SearchContext,
    SearchEngine, SearchOutcome, StageKind,
};

use crate::sc::{ScConfig, ScMlp};
use crate::tc23::{approximate_tc23, Tc23Config};
use crate::tcad23::{approximate_tcad23, Tcad23Config};

/// How many training rows the SC engine samples for its (reported, not
/// optimized) training-split accuracy — full-split simulation at 1024
/// bits/value is disproportionately slow for a context metric.
const SC_TRAIN_ACCURACY_ROWS: usize = 1000;

fn empty_outcome(front: Vec<DesignPoint>, wall: std::time::Duration) -> SearchOutcome {
    SearchOutcome {
        front,
        estimated_front: Vec::new(),
        history: Vec::new(),
        evaluations: 0,
        ga_wall: wall,
    }
}

/// TC'23 (ref. \[5\]): greedy post-training coefficient replacement
/// with few-CSD-digit values plus accumulation truncation.
#[derive(Debug, Clone, Default)]
pub struct Tc23Engine {
    /// The method's search configuration.
    pub config: Tc23Config,
}

impl Tc23Engine {
    /// Engine with the given configuration.
    #[must_use]
    pub fn new(config: Tc23Config) -> Self {
        Self { config }
    }
}

impl SearchEngine for Tc23Engine {
    fn name(&self) -> &'static str {
        "tc23"
    }

    fn cache_fingerprint(&self) -> u64 {
        fingerprint_json(&self.config)
    }

    fn search(
        &self,
        ctx: &SearchContext<'_>,
        ctl: &RunControl<'_>,
    ) -> Result<SearchOutcome, FlowError> {
        ctl.ensure_live(StageKind::Searched)?;
        let started = Instant::now();
        let design = approximate_tc23(
            ctx.baseline,
            &ctx.train.features,
            &ctx.train.labels,
            &self.config,
        );
        let wall = started.elapsed();
        ctl.ensure_live(StageKind::Searched)?;
        // Cost through the study's model: the report lands at the
        // scenario's technology and operating supply like every other
        // engine's.
        let report = ctx
            .cost
            .report(&design.hardware_spec(&format!("{}_tc23", ctx.name)));
        let point = DesignPoint {
            network: DesignNetwork::Truncated {
                mlp: design.mlp.clone(),
                trunc_bits: design.trunc_bits.clone(),
            },
            train_accuracy: design.tuning_accuracy,
            test_accuracy: design.accuracy(&ctx.test.features, &ctx.test.labels),
            estimated_area: report.area_cm2,
            report,
        };
        Ok(empty_outcome(vec![point], wall))
    }
}

/// TCAD'23 (ref. \[7\]): milder coefficient approximation plus Voltage
/// Over-Scaling below 0.8 V with a timing-error model.
///
/// Voltage over-scaling **is** this method: its reports land at the
/// VOS voltage its own search selects, not at the study scenario's
/// operating supply (the carve-out documented on
/// [`SearchContext::cost`]). Costing still flows through the scenario's
/// technology via that cost model.
#[derive(Debug, Clone)]
pub struct Tcad23Engine {
    /// The method's search configuration.
    pub config: Tcad23Config,
    /// Voltage-scaling model used for the over-scaled operating point.
    pub vdd: VddModel,
}

impl Tcad23Engine {
    /// Engine with the given configuration and voltage model.
    #[must_use]
    pub fn new(config: Tcad23Config, vdd: VddModel) -> Self {
        Self { config, vdd }
    }
}

impl Default for Tcad23Engine {
    fn default() -> Self {
        Self::new(Tcad23Config::default(), VddModel::egfet())
    }
}

impl SearchEngine for Tcad23Engine {
    fn name(&self) -> &'static str {
        "tcad23"
    }

    fn cache_fingerprint(&self) -> u64 {
        fingerprint_json(&(&self.config, &self.vdd))
    }

    fn search(
        &self,
        ctx: &SearchContext<'_>,
        ctl: &RunControl<'_>,
    ) -> Result<SearchOutcome, FlowError> {
        ctl.ensure_live(StageKind::Searched)?;
        let started = Instant::now();
        let design = approximate_tcad23(
            ctx.baseline,
            &ctx.train.features,
            &ctx.train.labels,
            ctx.classes,
            &self.config,
            ctx.cost,
            &self.vdd,
        );
        let wall = started.elapsed();
        ctl.ensure_live(StageKind::Searched)?;
        // Cost through the study's model, then move to the design's own
        // over-scaled operating voltage.
        let report = ctx
            .cost
            .report(&design.design.hardware_spec(&format!("{}_tcad23", ctx.name)))
            .at_vdd(&self.vdd, design.vdd);
        let raw_test = design.design.accuracy(&ctx.test.features, &ctx.test.labels);
        let point = DesignPoint {
            network: DesignNetwork::Truncated {
                mlp: design.design.mlp.clone(),
                trunc_bits: design.design.trunc_bits.clone(),
            },
            train_accuracy: design.tuning_accuracy,
            test_accuracy: design.vos_accuracy(raw_test, ctx.classes),
            estimated_area: report.area_cm2,
            report,
        };
        Ok(empty_outcome(vec![point], wall))
    }
}

/// DATE'21 (ref. \[10\]): stochastic-computing MLPs with bipolar
/// bitstreams, XNOR multipliers and MUX adders, converted from the
/// float network.
#[derive(Debug, Clone, Default)]
pub struct ScEngine {
    /// The conversion/simulation configuration.
    pub config: ScConfig,
}

impl ScEngine {
    /// Engine with the given configuration.
    #[must_use]
    pub fn new(config: ScConfig) -> Self {
        Self { config }
    }
}

impl SearchEngine for ScEngine {
    fn name(&self) -> &'static str {
        "sc-date21"
    }

    fn cache_fingerprint(&self) -> u64 {
        fingerprint_json(&self.config)
    }

    fn search(
        &self,
        ctx: &SearchContext<'_>,
        ctl: &RunControl<'_>,
    ) -> Result<SearchOutcome, FlowError> {
        ctl.ensure_live(StageKind::Searched)?;
        let started = Instant::now();
        let sc = ScMlp::from_dense(ctx.float_mlp, &ctx.float_train.features, &self.config);
        let wall = started.elapsed();
        ctl.ensure_live(StageKind::Searched)?;
        // SC designs are not bespoke-MLP specs (no adder trees to
        // elaborate), so they cost directly from their gate content in
        // the scenario's technology — then move to the scenario's
        // operating supply like every other engine's report (a no-op
        // at the nominal supply).
        let report = ctx
            .cost
            .scenario()
            .scale_report(sc.hardware_report(ctx.tech(), &format!("{}_sc", ctx.name)));
        let n = ctx.float_train.features.len().min(SC_TRAIN_ACCURACY_ROWS);
        let point = DesignPoint {
            network: DesignNetwork::Stochastic,
            train_accuracy: sc
                .accuracy(&ctx.float_train.features[..n], &ctx.float_train.labels[..n]),
            test_accuracy: sc.accuracy(&ctx.float_test.features, &ctx.float_test.labels),
            estimated_area: report.area_cm2,
            report,
        };
        Ok(empty_outcome(vec![point], wall))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_datasets::Dataset;
    use pe_hw::TechLibrary;
    use printed_axc::{Study, StudyConfig};

    fn costed_stage() -> printed_axc::BaselineCosted {
        let pipeline = Study::for_dataset(Dataset::BreastCancer)
            .config(StudyConfig {
                sgd_epochs_scale: 0.05,
                ..StudyConfig::quick(11)
            })
            .tech(TechLibrary::egfet())
            .finish()
            .expect("valid config");
        let prepared = pipeline.prepare().expect("prepare");
        let float = pipeline.train_float(prepared).expect("train");
        pipeline.cost_baseline(float).expect("cost")
    }

    #[test]
    fn all_three_prior_work_engines_report_one_costed_design() {
        let costed = costed_stage();
        let model = pe_hw::ExactCostModel::new(pe_hw::CostScenario::default());
        let ctx = costed.search_context(&model);
        let engines: [&dyn SearchEngine; 3] = [
            &Tc23Engine::default(),
            &Tcad23Engine::default(),
            &ScEngine::default(),
        ];
        for engine in engines {
            let outcome = engine
                .search(&ctx, &RunControl::NONE)
                .unwrap_or_else(|e| panic!("{} failed: {e}", engine.name()));
            assert_eq!(outcome.front.len(), 1, "{}", engine.name());
            let point = &outcome.front[0];
            assert!(point.report.area_cm2 > 0.0, "{}", engine.name());
            assert!(
                (0.0..=1.0).contains(&point.test_accuracy),
                "{}",
                engine.name()
            );
            assert!(point.network.ax().is_none(), "{}", engine.name());
        }
        // TCAD'23 operates below nominal supply; TC'23 at nominal.
        let tcad = Tcad23Engine::default()
            .search(&ctx, &RunControl::NONE)
            .expect("tcad23");
        assert!(tcad.front[0].report.vdd < 1.0);
    }

    #[test]
    fn engines_are_cancellable() {
        let costed = costed_stage();
        let model = pe_hw::ExactCostModel::new(pe_hw::CostScenario::default());
        let ctx = costed.search_context(&model);
        let token = printed_axc::CancelToken::new();
        token.cancel();
        let ctl = RunControl::new(None, Some(&token));
        assert!(matches!(
            Tc23Engine::default().search(&ctx, &ctl),
            Err(FlowError::Cancelled { .. })
        ));
    }
}
