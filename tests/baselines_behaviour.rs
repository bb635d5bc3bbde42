//! Cross-crate checks on the state-of-the-art comparison baselines:
//! each mechanism must show its characteristic cost/accuracy signature
//! against the same exact baseline.

use printed_mlps::baselines::{
    approximate_tc23, approximate_tcad23, ScConfig, ScMlp, Tc23Config, Tcad23Config,
};
use printed_mlps::datasets::{generate, quantize, stratified_split, Dataset};
use printed_mlps::hw::{CostScenario, ExactCostModel, TechLibrary, VddModel};
use printed_mlps::mlp::train::train_best_of;
use printed_mlps::mlp::{fixed_to_hardware, FixedMlp, QuantConfig, Topology};

struct Setup {
    baseline: FixedMlp,
    float_mlp: printed_mlps::mlp::DenseMlp,
    train_rows_f: Vec<Vec<f32>>,
    test_rows_f: Vec<Vec<f32>>,
    test_labels: Vec<usize>,
    train_q: pe_datasets::QuantizedData,
    test_q: pe_datasets::QuantizedData,
}

fn setup(dataset: Dataset) -> Setup {
    let spec = dataset.spec();
    let data = generate(dataset, 2);
    let split = stratified_split(&data, 0.7, 2).expect("valid fraction");
    let sgd = printed_mlps::mlp::TrainConfig {
        epochs: 60,
        learning_rate: spec.sgd.learning_rate,
        seed: 2,
        ..printed_mlps::mlp::TrainConfig::default()
    };
    let (float_mlp, _) = train_best_of(
        &Topology::new(spec.topology()),
        &split.train.features,
        &split.train.labels,
        &sgd,
        3,
    );
    let baseline = FixedMlp::quantize(&float_mlp, QuantConfig::default(), &split.train.features);
    Setup {
        baseline,
        float_mlp,
        train_rows_f: split.train.features.clone(),
        test_rows_f: split.test.features.clone(),
        test_labels: split.test.labels.clone(),
        train_q: quantize(&split.train, 4),
        test_q: quantize(&split.test, 4),
    }
}

#[test]
fn tc23_trades_bounded_accuracy_for_area() {
    let s = setup(Dataset::BreastCancer);
    let model = ExactCostModel::new(CostScenario::nominal(TechLibrary::egfet()));
    let exact = model.report(&fixed_to_hardware(&s.baseline, "exact"));
    let base_acc = s.baseline.accuracy(&s.train_q.features, &s.train_q.labels);

    let design = approximate_tc23(
        &s.baseline,
        &s.train_q.features,
        &s.train_q.labels,
        &Tc23Config::default(),
    );
    let report = design.hardware_report(&model, "tc23");

    assert!(report.area_cm2 < exact.area_cm2, "no area saving");
    assert!(
        design.tuning_accuracy >= base_acc - 0.05 - 1e-9,
        "budget violated"
    );
    // Test accuracy stays sane too.
    let test_acc = design.accuracy(&s.test_q.features, &s.test_q.labels);
    assert!(test_acc > 0.7, "tc23 test accuracy {test_acc}");
}

#[test]
fn tcad23_saves_power_via_voltage() {
    let s = setup(Dataset::BreastCancer);
    let model = ExactCostModel::new(CostScenario::nominal(TechLibrary::egfet()));
    let vdd = VddModel::egfet();
    let design = approximate_tcad23(
        &s.baseline,
        &s.train_q.features,
        &s.train_q.labels,
        2,
        &Tcad23Config::default(),
        &model,
        &vdd,
    );
    let at_vos = design.hardware_report(&model, &vdd, "tcad");
    let at_1v = design.design.hardware_report(&model, "tcad_1v");
    assert!(
        at_vos.power_mw < at_1v.power_mw * 0.6,
        "VOS must cut power substantially"
    );
    assert!(at_vos.delay_ms > at_1v.delay_ms, "VOS slows the circuit");
}

#[test]
fn sc_mlp_is_small_but_less_accurate_on_hard_data() {
    // WhiteWine: thin margins; SC noise costs accuracy while the
    // XNOR/MUX datapath stays far below the exact multiplier datapath.
    let s = setup(Dataset::WhiteWine);
    let tech = TechLibrary::egfet();
    let model = ExactCostModel::new(CostScenario::nominal(tech.clone()));
    let exact = model.report(&fixed_to_hardware(&s.baseline, "exact"));

    let sc = ScMlp::from_dense(&s.float_mlp, &s.train_rows_f, &ScConfig::default());
    let report = sc.hardware_report(&tech, "sc");
    assert!(
        report.area_cm2 < exact.area_cm2 * 0.6,
        "SC datapath should be small"
    );

    let float_acc = s.float_mlp.accuracy(&s.test_rows_f, &s.test_labels);
    let sc_acc = sc.accuracy(&s.test_rows_f, &s.test_labels);
    assert!(
        sc_acc <= float_acc + 0.02,
        "SC cannot beat the float net it was converted from: {sc_acc} vs {float_acc}"
    );
}
