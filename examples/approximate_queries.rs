//! Approximate query answering from models — the paper's stated future
//! work ("we intend to apply our framework to approximate query
//! answering"), prototyped.
//!
//! A dt-model is a selectivity synopsis: the measure component stores the
//! fraction of the dataset in every leaf × class region, so COUNT queries
//! over box predicates can be answered from the model alone, assuming
//! uniformity inside each leaf. The FOCUS deviation then has an operational
//! meaning: it bounds how stale a synopsis is — the larger
//! `δ(model(D_old), model(D_new))`, the worse the old synopsis answers
//! queries over the new data.
//!
//! Run with: `cargo run --release --example approximate_queries`

use focus::core::prelude::*;
use focus::data::classify::{ClassifyFn, ClassifyGen};
use focus::tree::{DecisionTree, TreeParams};

/// Estimates the selectivity of `query` from a dt-model synopsis: for each
/// leaf, the overlap fraction is approximated by the per-attribute
/// interval-overlap product (the uniformity assumption inside leaves).
fn estimate_selectivity(model: &DtModel, query: &BoxRegion, data_bounds: &BoxRegion) -> f64 {
    let mut total = 0.0;
    for (leaf_idx, leaf) in model.leaves().iter().enumerate() {
        let Some(overlap) = leaf.intersect(query) else {
            continue;
        };
        // Volume fraction of the overlap inside the leaf (bounded attrs only).
        let mut frac = 1.0;
        for ((c_leaf, c_overlap), c_bounds) in leaf
            .constraints
            .iter()
            .zip(&overlap.constraints)
            .zip(&data_bounds.constraints)
        {
            let width = |c: &AttrConstraint| -> Option<f64> {
                match c {
                    AttrConstraint::Interval { lo, hi } => {
                        // Clip infinite bounds to the data's bounding box.
                        let (blo, bhi) = match c_bounds {
                            AttrConstraint::Interval { lo, hi } => (*lo, *hi),
                            _ => return None,
                        };
                        Some((hi.min(bhi) - lo.max(blo)).max(0.0))
                    }
                    AttrConstraint::Cats(m) => Some(m.count() as f64),
                }
            };
            if let (Some(wl), Some(wo)) = (width(c_leaf), width(c_overlap)) {
                if wl > 0.0 {
                    frac *= wo / wl;
                }
            }
        }
        let leaf_mass: f64 = (0..model.n_classes())
            .map(|c| model.measure(leaf_idx, c))
            .sum();
        total += leaf_mass * frac;
    }
    total
}

/// True selectivity by scanning.
fn true_selectivity(data: &LabeledTable, query: &BoxRegion) -> f64 {
    let hits = data.rows().filter(|(row, _)| query.contains(row)).count();
    hits as f64 / data.len().max(1) as f64
}

fn fit(data: &LabeledTable) -> DtModel {
    DecisionTree::fit(
        data,
        TreeParams::default()
            .max_depth(10)
            .min_leaf(data.len() / 400),
    )
    .to_model()
}

fn main() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let d_old = ClassifyGen::new(ClassifyFn::F2).generate(20_000, 1);
    let schema = d_old.table.schema();
    let synopsis = fit(&d_old);
    println!(
        "synopsis: {} leaves summarizing {} rows",
        synopsis.leaves().len(),
        d_old.len()
    );

    // Data bounding box for clipping unbounded leaf edges.
    let bounds = BoxBuilder::new(schema)
        .range("salary", 20_000.0, 150_000.0)
        .range("commission", 0.0, 75_000.0)
        .range("age", 20.0, 80.0)
        .range("hvalue", 0.0, 1_350_000.0)
        .range("hyears", 1.0, 30.0)
        .range("loan", 0.0, 500_000.0)
        .build();

    let queries = [
        ("young", BoxBuilder::new(schema).lt("age", 35.0).build()),
        (
            "mid-income",
            BoxBuilder::new(schema)
                .range("salary", 60_000.0, 90_000.0)
                .build(),
        ),
        (
            "young ∧ low-edu",
            BoxBuilder::new(schema)
                .lt("age", 40.0)
                .cats("elevel", &[0, 1])
                .build(),
        ),
        (
            "senior ∧ high-salary",
            BoxBuilder::new(schema)
                .ge("age", 60.0)
                .ge("salary", 100_000.0)
                .build(),
        ),
    ];

    println!("\nquery answering on the ORIGINAL data:");
    let mut max_err_fresh = 0.0f64;
    for (name, q) in &queries {
        let est = estimate_selectivity(&synopsis, q, &bounds);
        let truth = true_selectivity(&d_old, q);
        let err = (est - truth).abs();
        max_err_fresh = max_err_fresh.max(err);
        println!("  {name:22} est {est:.4}  true {truth:.4}  |err| {err:.4}");
    }
    assert!(max_err_fresh < 0.08, "synopsis error {max_err_fresh}");

    // The data drifts; the stale synopsis degrades, and the FOCUS deviation
    // predicts it.
    println!("\nafter drift (labels/shape now follow F4):");
    let d_new = ClassifyGen::new(ClassifyFn::F4).generate(20_000, 2);
    let model_new = fit(&d_new);
    let deviation = deviate::<DtFamily>(&synopsis, &d_old, &model_new, &d_new, f, g, par).value;
    let mut max_err_stale = 0.0f64;
    for (name, q) in &queries {
        let est = estimate_selectivity(&synopsis, q, &bounds);
        let truth = true_selectivity(&d_new, q);
        let err = (est - truth).abs();
        max_err_stale = max_err_stale.max(err);
        println!("  {name:22} est {est:.4}  true {truth:.4}  |err| {err:.4}");
    }
    println!(
        "\nδ(old model, new model) = {deviation:.3}; \
         max query error grew {max_err_fresh:.4} → {max_err_stale:.4}"
    );
    // The attribute distributions are identical between F2 and F4 (only
    // labels shift), so box-COUNT queries stay accurate — the deviation
    // instead reflects the class-structure change. Demonstrate with a
    // class-aware query.
    let class_q = BoxBuilder::new(schema).lt("age", 40.0).class(1).build();
    let est = {
        // Class-aware estimate: leaf measure of class 1 only.
        let mut total = 0.0;
        for (leaf_idx, leaf) in synopsis.leaves().iter().enumerate() {
            if leaf.intersect(&class_q).is_some() {
                let overlap = leaf.intersect(&class_q).unwrap();
                let frac = if overlap == leaf.clone().with_class(1) {
                    1.0
                } else {
                    0.5
                };
                total += synopsis.measure(leaf_idx, 1) * frac;
            }
        }
        total
    };
    let truth = d_new
        .rows()
        .filter(|(row, label)| class_q.contains_labeled(row, *label))
        .count() as f64
        / d_new.len() as f64;
    println!("class-aware query (age<40 ∧ class A): est {est:.4} vs new truth {truth:.4}");
}
