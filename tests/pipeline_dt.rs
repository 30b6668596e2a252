//! End-to-end dt-model pipeline: classification generator → CART →
//! deviation → misclassification / chi-squared monitoring → bootstrap
//! qualification — the complete Figure 14/15 machinery at test scale.

use focus::core::prelude::*;
use focus::data::classify::{ClassifyFn, ClassifyGen};
use focus::tree::{DecisionTree, TreeParams};

fn fit(data: &LabeledTable) -> DtModel {
    DecisionTree::fit(
        data,
        TreeParams::default()
            .max_depth(8)
            .min_leaf((data.len() / 100).max(5)),
    )
    .to_model()
}

fn deviation(a: &LabeledTable, b: &LabeledTable) -> f64 {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let ma = fit(a);
    let mb = fit(b);
    deviate::<DtFamily>(&ma, a, &mb, b, f, g, par).value
}

#[test]
fn same_function_deviation_small_different_function_large() {
    let d_f1a = ClassifyGen::new(ClassifyFn::F1).generate(4000, 1);
    let d_f1b = ClassifyGen::new(ClassifyFn::F1).generate(4000, 2);
    let d_f3 = ClassifyGen::new(ClassifyFn::F3).generate(4000, 3);
    let same = deviation(&d_f1a, &d_f1b);
    let diff = deviation(&d_f1a, &d_f3);
    assert!(
        diff > 5.0 * same,
        "F1-vs-F1 {same} should be dwarfed by F1-vs-F3 {diff}"
    );
}

#[test]
fn qualification_separates_null_from_drift() {
    let d1 = ClassifyGen::new(ClassifyFn::F2).generate(3000, 1);
    let d_same = ClassifyGen::new(ClassifyFn::F2).generate(3000, 2);
    let d_drift = ClassifyGen::new(ClassifyFn::F4).generate(3000, 3);
    let par = Parallelism::Global;

    let obs_same = deviation(&d1, &d_same);
    let q_same = qualify(&d1, &d_same, obs_same, 19, 5, par, deviation);
    // Not significant: 4 of 19 permutation replicates lie below.
    assert_eq!(q_same.significance_percent, 21.05263157894737);

    let obs_drift = deviation(&d1, &d_drift);
    let q_drift = qualify(&d1, &d_drift, obs_drift, 19, 5, par, deviation);
    assert_eq!(q_drift.significance_percent, 100.0);
}

#[test]
fn me_and_deviation_correlate_positively() {
    // Figure 15 at test scale: across increasingly drifted datasets, the
    // misclassification error of the old tree tracks the deviation.
    let d = ClassifyGen::new(ClassifyFn::F1).generate(4000, 7);
    let m = fit(&d);
    let mut devs = Vec::new();
    let mut mes = Vec::new();
    for (i, f) in [ClassifyFn::F2, ClassifyFn::F3, ClassifyFn::F4]
        .into_iter()
        .enumerate()
    {
        // Mix: pure drift and mild (block-extended) drift.
        let pure = ClassifyGen::new(f).generate(4000, 10 + i as u64);
        let block = d.concat(&ClassifyGen::new(f).generate(400, 20 + i as u64));
        for other in [pure, block] {
            let mo = fit(&other);
            devs.push(
                deviate::<DtFamily>(
                    &m,
                    &d,
                    &mo,
                    &other,
                    DiffFn::Absolute,
                    AggFn::Sum,
                    Parallelism::Global,
                )
                .value,
            );
            mes.push(misclassification_error(&m, &other, Parallelism::Global));
        }
    }
    let r = focus::stats::describe::pearson(&devs, &mes);
    assert!(r > 0.8, "expected strong positive correlation, got {r}");
}

#[test]
fn theorem_5_2_holds_for_fitted_trees() {
    let d1 = ClassifyGen::new(ClassifyFn::F2).generate(3000, 11);
    let d2 = ClassifyGen::new(ClassifyFn::F3).generate(3000, 12);
    let m = fit(&d1);
    for data in [&d1, &d2] {
        let direct = misclassification_error(&m, data, Parallelism::Global);
        let via = me_via_deviation(&m, data);
        assert!((direct - via).abs() < 1e-12, "{direct} vs {via}");
    }
}

#[test]
fn chi_squared_monitoring_flags_drift() {
    let d_old = ClassifyGen::new(ClassifyFn::F2).generate(4000, 13);
    let m = fit(&d_old);
    let d_fit = ClassifyGen::new(ClassifyFn::F2).generate(2000, 14);
    let d_drift = ClassifyGen::new(ClassifyFn::F3).generate(2000, 15);
    let x2_fit = chi_squared_statistic(&m, &d_fit, 0.5, Parallelism::Global);
    let x2_drift = chi_squared_statistic(&m, &d_drift, 0.5, Parallelism::Global);
    assert!(x2_drift > 3.0 * x2_fit, "{x2_drift} vs {x2_fit}");
    // Bootstrap calibration (Section 5.2.2) — the paper's answer to the
    // inapplicability of the standard X² table.
    let q = qualify_chi_squared(&d_old, 2000, x2_drift, 49, 7, Parallelism::Global, |d| {
        chi_squared_statistic(&m, d, 0.5, Parallelism::Global)
    });
    assert!(q.significance_percent >= 99.0);
}

#[test]
fn focussed_deviation_drills_into_the_drifting_band() {
    // F1 labels by age only; F1-with-shifted-boundary drifts exactly in the
    // band between the boundaries, which focussed deviation should expose.
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let schema = focus::data::classify::classification_schema();
    let d1 = ClassifyGen::new(ClassifyFn::F1).generate(4000, 17);
    // Build a synthetic "shifted F1": age < 45 or age ≥ 60.
    let mut d2 = LabeledTable::new(std::sync::Arc::clone(&schema), 2);
    let raw = ClassifyGen::new(ClassifyFn::F1).generate(4000, 18);
    let ai = schema.index_of("age").unwrap();
    for (row, _) in raw.rows() {
        let age = row[ai].as_num();
        d2.push_row(row, u32::from(!(45.0..60.0).contains(&age)));
    }
    let m1 = fit(&d1);
    let m2 = fit(&d2);
    let drift_band = BoxBuilder::new(&schema).range("age", 40.0, 45.0).build();
    let quiet_band = BoxBuilder::new(&schema).range("age", 60.0, 80.0).build();
    let dev_drift = deviate_focussed::<DtFamily>(&m1, &d1, &m2, &d2, &drift_band, f, g, par);
    let dev_quiet = deviate_focussed::<DtFamily>(&m1, &d1, &m2, &d2, &quiet_band, f, g, par);
    assert!(
        dev_drift.value > 2.0 * dev_quiet.value,
        "drift band {} vs quiet band {}",
        dev_drift.value,
        dev_quiet.value
    );
}

#[test]
fn gcr_cell_count_bounded_by_leaf_product() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let d1 = ClassifyGen::new(ClassifyFn::F2).generate(3000, 19);
    let d2 = ClassifyGen::new(ClassifyFn::F4).generate(3000, 20);
    let m1 = fit(&d1);
    let m2 = fit(&d2);
    let dev = deviate::<DtFamily>(&m1, &d1, &m2, &d2, f, g, par);
    assert!(dev.gcr.cells.len() <= m1.leaves().len() * m2.leaves().len());
    assert!(dev.gcr.cells.len() >= m1.leaves().len().max(m2.leaves().len()));
    // Measures over the GCR sum to 1 per dataset (it is a partition).
    let s1: f64 = dev.raw1.iter().sum::<f64>() / d1.len() as f64;
    let s2: f64 = dev.raw2.iter().sum::<f64>() / d2.len() as f64;
    assert!((s1 - 1.0).abs() < 1e-9, "sum1 {s1}");
    assert!((s2 - 1.0).abs() < 1e-9, "sum2 {s2}");
}
