//! Exploratory analysis of two census-style snapshots (Section 5.1):
//! find *where* two datasets differ, not just by how much.
//!
//! Demonstrates: dt-model deviation, focussed deviation over predicate
//! regions (`age < 30` etc.), the rank/select operators over the GCR, and
//! the change-monitoring special cases (misclassification error,
//! chi-squared with bootstrap calibration).
//!
//! Run with: `cargo run --release --example exploratory_drilldown`

use focus::core::prelude::*;
use focus::data::classify::{ClassifyFn, ClassifyGen};
use focus::tree::{DecisionTree, TreeParams};

fn fit(data: &LabeledTable) -> DtModel {
    DecisionTree::fit(
        data,
        TreeParams::default()
            .max_depth(8)
            .min_leaf(data.len() / 100),
    )
    .to_model()
}

fn main() {
    // Two snapshots: the labelling process drifts from F2 (age & salary
    // bands) to F3 (age & education bands) between them.
    let d_old = ClassifyGen::new(ClassifyFn::F2).generate(12_000, 1);
    let d_new = ClassifyGen::new(ClassifyFn::F3).generate(12_000, 2);
    let m_old = fit(&d_old);
    let m_new = fit(&d_new);
    println!(
        "trees: old {} leaves, new {} leaves",
        m_old.leaves().len(),
        m_new.leaves().len()
    );

    // Overall deviation.
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let dev = deviate::<DtFamily>(&m_old, &d_old, &m_new, &d_new, f, g, par);
    println!(
        "overall δ(f_a, g_sum) = {:.4} over {} GCR cells",
        dev.value,
        dev.gcr.cells.len()
    );

    // --- Focus on analyst-specified regions (Section 2.3 style) ---------
    let schema = d_old.table.schema();
    let regions = [
        ("age < 30", BoxBuilder::new(schema).lt("age", 30.0).build()),
        (
            "30 ≤ age < 60",
            BoxBuilder::new(schema).range("age", 30.0, 60.0).build(),
        ),
        ("age ≥ 60", BoxBuilder::new(schema).ge("age", 60.0).build()),
        (
            "low education (elevel ∈ {0,1})",
            BoxBuilder::new(schema).cats("elevel", &[0, 1]).build(),
        ),
    ];
    println!("\nfocussed deviations:");
    for (name, region) in &regions {
        let f = deviate_focussed::<DtFamily>(&m_old, &d_old, &m_new, &d_new, region, f, g, par);
        println!("  δ_ρ({name}) = {:.4}", f.value);
    }

    // --- Rank the GCR cells by their contribution -----------------------
    // (the paper's SelectTop(Rank(Γ_T1 ⊔ Γ_T2, δ)) expression)
    let k = m_old.n_classes() as usize;
    let scored = rank(
        dev.gcr.cells.iter().enumerate().collect::<Vec<_>>(),
        |(i, _)| (0..k).map(|c| dev.per_region[i * k + c]).sum::<f64>(),
    );
    println!("\ntop-3 drifting regions of the GCR:");
    for r in select_top_n(&scored, 3) {
        let (_, cell) = r.region;
        println!(
            "  Δ = {:.4} at {}",
            r.deviation,
            cell.region.describe(schema)
        );
    }

    // --- Change monitoring (Section 5.2) --------------------------------
    // How badly does the OLD model misrepresent the NEW data?
    let me = misclassification_error(&m_old, &d_new, Parallelism::Global);
    let me_self = misclassification_error(&m_old, &d_old, Parallelism::Global);
    println!("\nmisclassification of old model: on old data {me_self:.4}, on new data {me:.4}");

    // Theorem 5.2: ME is ½·δ(f_a, g_sum) against the predicted dataset.
    let via = me_via_deviation(&m_old, &d_new);
    assert!((me - via).abs() < 1e-12);
    println!("Theorem 5.2 check: ME = ½δ against predicted dataset ✓");

    // Chi-squared with bootstrap calibration (Section 5.2.2): the
    // asymptotic table is unreliable here (empty expected cells), so
    // bootstrap the null distribution of X² from the old dataset.
    let x2 = chi_squared_statistic(&m_old, &d_new, 0.5, Parallelism::Global);
    let q = qualify_chi_squared(&d_old, d_new.len(), x2, 99, 7, Parallelism::Global, |d| {
        chi_squared_statistic(&m_old, d, 0.5, Parallelism::Global)
    });
    println!(
        "X² = {x2:.1}; bootstrap significance {:.0}% (new data does NOT fit the old model)",
        q.significance_percent
    );
    assert!(q.significance_percent >= 99.0);
}
