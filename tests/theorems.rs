//! Executable witnesses for the paper's theorems, at pipeline level (real
//! generators and miners, not hand-built fixtures).

use focus::core::prelude::*;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::data::classify::{ClassifyFn, ClassifyGen};
use focus::mining::{Apriori, AprioriParams};
use focus::tree::{DecisionTree, TreeParams};

fn mine(d: &TransactionSet) -> LitsModel {
    Apriori::new(
        AprioriParams::with_minsup(0.02)
            .max_len(8)
            .min_count_floor(3),
    )
    .mine(d)
}

/// Theorem 4.1: for lits-models, the GCR yields the least deviation over
/// all common refinements, for f ∈ {f_a, f_s} and g ∈ {sum, max}.
#[test]
fn theorem_4_1_gcr_least_deviation_lits() {
    let g1 = AssocGen::new(AssocGenParams::small(), 1);
    let mut pp = AssocGenParams::small();
    pp.avg_pattern_len = 6.0;
    let g2 = AssocGen::new(pp, 2);
    let d1 = g1.generate(1500, 3);
    let d2 = g2.generate(1500, 4);
    let m1 = mine(&d1);
    let m2 = mine(&d2);
    let gcr = gcr_lits(m1.itemsets(), m2.itemsets());

    // Common refinements: the GCR padded with extra regions.
    let mut refinements: Vec<Vec<Itemset>> = Vec::new();
    let mut pad1 = gcr.clone();
    for a in gcr.iter().take(30) {
        for b in gcr.iter().take(30) {
            let u = a.union(b);
            if u.len() <= 5 {
                pad1.push(u);
            }
        }
    }
    pad1.sort();
    pad1.dedup();
    refinements.push(pad1);
    let mut pad2 = gcr.clone();
    pad2.push(Itemset::from_slice(&[0, 1, 2, 3]));
    pad2.push(Itemset::from_slice(&[7, 9]));
    pad2.sort();
    pad2.dedup();
    refinements.push(pad2);

    for f in [DiffFn::Absolute, DiffFn::Scaled] {
        for g in [AggFn::Sum, AggFn::Max] {
            let over = |regions: &[Itemset]| {
                let (s1, s2) = (LitsFamily::source(&d1), LitsFamily::source(&d2));
                let par = Parallelism::Global;
                deviate_over_sources::<LitsFamily>(regions.to_vec(), &m1, &s1, &m2, &s2, f, g, par)
                    .value
            };
            let at_gcr = over(&gcr);
            for (i, r) in refinements.iter().enumerate() {
                let at_finer = over(r);
                assert!(
                    at_gcr <= at_finer + 1e-9,
                    "refinement {i}: GCR {at_gcr} > finer {at_finer}"
                );
            }
        }
    }
}

/// Theorem 4.3: for dt-models with g = sum, the GCR (overlay) yields the
/// least deviation over common refinements.
#[test]
fn theorem_4_3_gcr_least_deviation_dt() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let d1 = ClassifyGen::new(ClassifyFn::F1).generate(3000, 1);
    let d2 = ClassifyGen::new(ClassifyFn::F2).generate(3000, 2);
    let fit = |d: &LabeledTable| {
        DecisionTree::fit(d, TreeParams::default().max_depth(6).min_leaf(30)).to_model()
    };
    let m1 = fit(&d1);
    let m2 = fit(&d2);
    let at_gcr = deviate::<DtFamily>(&m1, &d1, &m2, &d2, f, g, par).value;

    // A finer common refinement: every overlay cell further cut by an
    // age = 50 hyperplane.
    let schema = d1.table.schema();
    let age = schema.index_of("age").unwrap();
    let cells = gcr_partition(m1.leaves(), m2.leaves());
    let mut finer: Vec<BoxRegion> = Vec::new();
    for c in &cells {
        if let AttrConstraint::Interval { lo, hi } = c.region.constraints[age] {
            if lo < 50.0 && 50.0 < hi {
                let mut l = c.region.clone();
                let mut r = c.region.clone();
                l.constraints[age] = AttrConstraint::Interval { lo, hi: 50.0 };
                r.constraints[age] = AttrConstraint::Interval { lo: 50.0, hi };
                finer.push(l);
                finer.push(r);
                continue;
            }
        }
        finer.push(c.region.clone());
    }
    assert!(finer.len() > cells.len(), "the refinement must be strict");
    let finer = BoxIndex::new(&finer);
    let counts1 = count_partition(&d1, &finer, 2, Parallelism::Global);
    let counts2 = count_partition(&d2, &finer, 2, Parallelism::Global);
    let at_finer = deviation_fixed(
        &counts1,
        &counts2,
        d1.len() as u64,
        d2.len() as u64,
        DiffFn::Absolute,
        AggFn::Sum,
        Parallelism::Global,
    );
    assert!(at_gcr <= at_finer + 1e-9, "GCR {at_gcr} > finer {at_finer}");
}

/// Theorem 4.2 at pipeline level: δ* dominates δ(f_a, g), satisfies the
/// triangle inequality across a family of real mined models, and needs no
/// dataset access.
#[test]
fn theorem_4_2_bound_properties() {
    let mut models: Vec<(LitsModel, TransactionSet)> = Vec::new();
    for i in 0..4u64 {
        let mut p = AssocGenParams::small();
        p.avg_pattern_len = 4.0 + i as f64;
        let g = AssocGen::new(p, 10 + i);
        let d = g.generate(1200, i);
        let m = mine(&d);
        models.push((m, d));
    }
    for g in [AggFn::Sum, AggFn::Max] {
        // Dominance.
        for (m1, d1) in &models {
            for (m2, d2) in &models {
                let bound = lits_upper_bound(m1, m2, g);
                let exact =
                    deviate::<LitsFamily>(m1, d1, m2, d2, DiffFn::Absolute, g, Parallelism::Global)
                        .value;
                assert!(bound >= exact - 1e-12);
            }
        }
        // Triangle inequality.
        for a in 0..models.len() {
            for b in 0..models.len() {
                for c in 0..models.len() {
                    let ab = lits_upper_bound(&models[a].0, &models[b].0, g);
                    let bc = lits_upper_bound(&models[b].0, &models[c].0, g);
                    let ac = lits_upper_bound(&models[a].0, &models[c].0, g);
                    assert!(ac <= ab + bc + 1e-12, "{g:?}");
                }
            }
        }
    }
}

/// Theorem 5.1: focussing preserves the meet-semilattice machinery — the
/// focussed deviation equals the deviation computed over the focussed GCR,
/// and focussing with the full space is the identity.
#[test]
fn theorem_5_1_focussing_consistency() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let d1 = ClassifyGen::new(ClassifyFn::F2).generate(2000, 5);
    let d2 = ClassifyGen::new(ClassifyFn::F3).generate(2000, 6);
    let fit = |d: &LabeledTable| {
        DecisionTree::fit(d, TreeParams::default().max_depth(6).min_leaf(20)).to_model()
    };
    let m1 = fit(&d1);
    let m2 = fit(&d2);
    let schema = d1.table.schema();
    let everything = BoxRegion::full(schema);
    let total = deviate::<DtFamily>(&m1, &d1, &m2, &d2, f, g, par).value;
    let focussed_total =
        deviate_focussed::<DtFamily>(&m1, &d1, &m2, &d2, &everything, f, g, par).value;
    assert!((total - focussed_total).abs() < 1e-12);

    // A disjoint decomposition of the space. Each half is bounded by the
    // total (the Section 5 monotonicity of f_a), and the two halves
    // together cover at least the total — splitting a straddling GCR cell
    // refines it, and by Theorem 4.3 finer refinements can only increase
    // the summed deviation, so exact additivity holds only when the focus
    // boundary aligns with cell boundaries.
    let young = BoxBuilder::new(schema).lt("age", 50.0).build();
    let old = BoxBuilder::new(schema).ge("age", 50.0).build();
    let dy = deviate_focussed::<DtFamily>(&m1, &d1, &m2, &d2, &young, f, g, par).value;
    let doo = deviate_focussed::<DtFamily>(&m1, &d1, &m2, &d2, &old, f, g, par).value;
    assert!(dy <= total + 1e-9 && doo <= total + 1e-9, "monotonicity");
    assert!(
        dy + doo >= total - 1e-9,
        "superadditivity of a covering split: {dy} + {doo} vs {total}"
    );
}

/// Proposition 5.1 / Theorem 5.2 cross-check: the chi-squared statistic and
/// the misclassification error both read out of the deviation framework and
/// order drifted datasets identically.
#[test]
fn monitoring_special_cases_agree_on_ordering() {
    let d = ClassifyGen::new(ClassifyFn::F1).generate(3000, 9);
    let m = DecisionTree::fit(&d, TreeParams::default().max_depth(6).min_leaf(30)).to_model();
    let mild = d.concat(&ClassifyGen::new(ClassifyFn::F3).generate(300, 10));
    let wild = ClassifyGen::new(ClassifyFn::F3).generate(3000, 11);
    let me_mild = misclassification_error(&m, &mild, Parallelism::Global);
    let me_wild = misclassification_error(&m, &wild, Parallelism::Global);
    let x2_mild = chi_squared_statistic(&m, &mild, 0.5, Parallelism::Global);
    let x2_wild = chi_squared_statistic(&m, &wild, 0.5, Parallelism::Global);
    assert!(me_wild > me_mild);
    assert!(x2_wild > x2_mild);
}
