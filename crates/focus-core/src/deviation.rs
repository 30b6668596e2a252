//! The deviation measure `δ(f,g)` (Definitions 3.5 and 3.6) and its
//! focussed variant `δρ` (Definition 5.2).
//!
//! Computing `δ(f,g)(M1, M2)`:
//! 1. form the GCR of the two structural components;
//! 2. extend both models to the GCR — one scan of each dataset to obtain
//!    the measure of every GCR region w.r.t. that dataset;
//! 3. apply the difference function `f` per region and the aggregate `g`
//!    over all regions.
//!
//! The paper defines those three steps once, over any model class with the
//! 2-component and meet-semilattice properties — and so does this module:
//! [`deviate`], [`deviate_focussed`] and [`deviate_over_sources`] are
//! written against the [`ModelFamily`] trait and instantiated with
//! [`LitsFamily`](crate::family::LitsFamily),
//! [`DtFamily`](crate::family::DtFamily) or
//! [`ClusterFamily`](crate::family::ClusterFamily). Every one of them
//! returns a [`FamilyDeviation`] and takes an explicit [`Parallelism`].
//!
//! Focussed deviation first intersects every GCR region with the focussing
//! region `ρ` and computes the same aggregate over the intersections.

use crate::diff::{AggFn, DiffFn};
use crate::family::{ModelFamily, Side};
use focus_exec::{map_chunks_flat, Parallelism};

/// Minimum regions per worker chunk for the per-region difference loops:
/// one `f.eval` is a handful of flops, so only large GCRs are worth
/// fanning out.
const REGION_GRAIN: usize = 1024;

/// Evaluates an independent per-region value over `0..n` on `par` worker
/// threads, returning the values **in region order**.
///
/// Each region's value is computed by the same expression a sequential
/// loop would use and per-chunk vectors concatenate in chunk order
/// ([`map_chunks_flat`]), so the result is bit-identical for every thread
/// count. Callers fold the vector sequentially afterwards (the aggregate
/// `g`), which keeps the whole `f`-then-`g` aggregation
/// thread-count-invariant: the parallel part is exact, the float fold sees
/// the same values in the same order.
pub(crate) fn eval_regions_par(
    par: Parallelism,
    n: usize,
    f: impl Fn(usize) -> f64 + Sync,
) -> Vec<f64> {
    map_chunks_flat(par, n, REGION_GRAIN, |range| {
        range.map(&f).collect::<Vec<f64>>()
    })
}

// ---------------------------------------------------------------------------
// δ1: identical structural components (Definition 3.5)
// ---------------------------------------------------------------------------

/// Deviation between two measure components over an *identical* structural
/// component (Definition 3.5). `counts1`/`counts2` are the absolute measures
/// of each region w.r.t. datasets of sizes `n1`/`n2`.
///
/// Empty datasets are well-defined: a dataset with `n = 0` rows has
/// selectivity 0 in every region (see [`DiffFn::eval`]), so the deviation
/// against an empty side degenerates to the other side's total mass rather
/// than NaN, and two empty datasets deviate by 0.
///
/// The per-region difference loop fans out over `par` worker threads.
/// Bit-identical to the sequential computation for any thread count:
/// per-region values are exact and come back in region order; only the
/// final `g` fold touches them, sequentially.
pub fn deviation_fixed(
    counts1: &[u64],
    counts2: &[u64],
    n1: u64,
    n2: u64,
    f: DiffFn,
    g: AggFn,
    par: Parallelism,
) -> f64 {
    assert_eq!(
        counts1.len(),
        counts2.len(),
        "identical structure required: measure vectors must align"
    );
    let per_region = eval_regions_par(par, counts1.len(), |i| {
        f.eval(counts1[i] as f64, counts2[i] as f64, n1 as f64, n2 as f64)
    });
    g.eval(per_region)
}

/// As [`deviation_fixed`] but over already-normalized selectivities (the
/// dataset sizes are still passed through to `f` since χ² needs them).
pub fn deviation_fixed_selectivities(
    sel1: &[f64],
    sel2: &[f64],
    n1: u64,
    n2: u64,
    f: DiffFn,
    g: AggFn,
) -> f64 {
    assert_eq!(sel1.len(), sel2.len());
    g.eval(
        sel1.iter()
            .zip(sel2)
            .map(|(&a, &b)| f.eval(a * n1 as f64, b * n2 as f64, n1 as f64, n2 as f64)),
    )
}

// ---------------------------------------------------------------------------
// The generic engine (Definition 3.6, any model family)
// ---------------------------------------------------------------------------

/// Full result of a deviation computation: the GCR, the canonical
/// per-region measures of both sides, and the per-region differences.
#[derive(Debug, Clone)]
pub struct FamilyDeviation<F: ModelFamily> {
    /// The deviation value `δ(f,g)(M1, M2)`.
    pub value: f64,
    /// The GCR structural component.
    pub gcr: F::Gcr,
    /// Canonical measures of every evaluation region w.r.t. `D1` (support
    /// fractions for lits, absolute counts for dt/cluster).
    pub raw1: Vec<f64>,
    /// Canonical measures w.r.t. `D2`.
    pub raw2: Vec<f64>,
    /// Per-region difference `f(v1, v2, n1, n2)`; `0` for regions that do
    /// not participate (e.g. the other classes of a class-focussed cell).
    pub per_region: Vec<f64>,
}

/// Deviation between two models of any family (Definition 3.6), with the
/// measure scans and the per-region difference loop on `par` worker
/// threads. Bit-identical to the sequential computation for any thread
/// count.
#[allow(clippy::too_many_arguments)]
pub fn deviate<F: ModelFamily>(
    m1: &F::Model,
    d1: &F::Dataset,
    m2: &F::Model,
    d2: &F::Dataset,
    f: DiffFn,
    g: AggFn,
    par: Parallelism,
) -> FamilyDeviation<F> {
    let (s1, s2) = (F::source(d1), F::source(d2));
    deviate_over_sources::<F>(F::gcr(m1, m2), m1, &s1, m2, &s2, f, g, par)
}

/// Focussed deviation `δρ` (Definition 5.2): the GCR is intersected with
/// the focussing region before measures are extended.
#[allow(clippy::too_many_arguments)]
pub fn deviate_focussed<F: ModelFamily>(
    m1: &F::Model,
    d1: &F::Dataset,
    m2: &F::Model,
    d2: &F::Dataset,
    focus: &F::Focus,
    f: DiffFn,
    g: AggFn,
    par: Parallelism,
) -> FamilyDeviation<F> {
    let (s1, s2) = (F::source(d1), F::source(d2));
    let gcr = F::restrict(F::gcr(m1, m2), focus);
    deviate_over_sources::<F>(gcr, m1, &s1, m2, &s2, f, g, par)
}

/// The region-evaluation loop every family shares — the single place the
/// `f`-then-`g` aggregation of Definition 3.6 is spelled out:
///
/// 1. measure every GCR evaluation region against both datasets (one scan
///    each, via [`ModelFamily::measures`]);
/// 2. apply `f` per region, fanned out in region order;
/// 3. fold the participating regions' differences with `g`, sequentially.
///
/// It takes the GCR and pre-built access handles
/// ([`ModelFamily::Source`]) instead of raw datasets. Callers that build
/// their own region sets (the structural operators of Section 5) pass
/// the GCR in. The batch engines in `focus-registry` and the CLI keep one
/// handle per dataset for a whole run, so the expensive structures
/// inside a handle (the lits vertical index) are built at most once.
#[allow(clippy::too_many_arguments)]
pub fn deviate_over_sources<F: ModelFamily>(
    gcr: F::Gcr,
    m1: &F::Model,
    s1: &F::Source<'_>,
    m2: &F::Model,
    s2: &F::Source<'_>,
    f: DiffFn,
    g: AggFn,
    par: Parallelism,
) -> FamilyDeviation<F> {
    let n1 = F::source_len(s1);
    let n2 = F::source_len(s2);
    let raw1 = F::measures(&gcr, m1, m2, s1, Side::Left, par);
    let raw2 = F::measures(&gcr, m1, m2, s2, Side::Right, par);
    debug_assert_eq!(raw1.len(), F::n_regions(&gcr));
    debug_assert_eq!(raw2.len(), F::n_regions(&gcr));
    let (n1f, n2f) = (n1 as f64, n2 as f64);
    let (raw1_ref, raw2_ref, gcr_ref) = (&raw1, &raw2, &gcr);
    let per_region = eval_regions_par(par, raw1.len(), |i| {
        if F::participates(gcr_ref, i) {
            f.eval(
                F::abs_measure(raw1_ref[i], n1),
                F::abs_measure(raw2_ref[i], n2),
                n1f,
                n2f,
            )
        } else {
            0.0
        }
    });
    let value = g.eval(
        per_region
            .iter()
            .enumerate()
            .filter(|&(i, _)| F::participates(&gcr, i))
            .map(|(_, &d)| d),
    );
    FamilyDeviation {
        value,
        gcr,
        raw1,
        raw2,
        per_region,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{LabeledTable, Schema, TransactionSet, Value};
    use crate::family::{ClusterFamily, DtFamily, LitsFamily};
    use crate::model::{induce_dt_measures, ClusterModel, DtModel, LitsModel};
    use crate::region::{BoxBuilder, Itemset};
    use std::sync::Arc;

    // ---------------- lits ----------------

    /// Builds the paper's Figure 6 scenario as actual transaction datasets.
    ///
    /// Supports required (items a=0, b=1, c=2), |D| = 20 each:
    ///   D1: a:0.5  b:0.4  c:0.1  ab:0.25 bc:0.05
    ///   D2: a:0.1  b:0.3  c:0.5  ab:0.05 bc:0.2
    fn figure6_datasets() -> (TransactionSet, TransactionSet) {
        // Construct D1: 20 transactions.
        // ab:5, a alone:5, b alone:2(+ab5+bc1=8→0.4), bc:1, c alone:1.
        let mut d1 = TransactionSet::new(3);
        for _ in 0..5 {
            d1.push(vec![0, 1]); // ab (counts a, b, ab)
        }
        for _ in 0..5 {
            d1.push(vec![0]); // a = 10 → 0.5
        }
        d1.push(vec![1, 2]); // bc = 1 → 0.05; b = 6+1... wait recompute
        for _ in 0..2 {
            d1.push(vec![1]); // b alone
        }
        d1.push(vec![2]); // c alone → c = 2 → 0.1
                          // Pad with empty transactions to reach 20.
        while d1.len() < 20 {
            d1.push(vec![]);
        }
        // Verify: a = 10 (0.5) ✓; b = 5 + 1 + 2 = 8 (0.4) ✓; c = 2 (0.1) ✓;
        // ab = 5 (0.25) ✓; bc = 1 (0.05) ✓.

        let mut d2 = TransactionSet::new(3);
        d2.push(vec![0, 1]); // ab = 1 → 0.05; contributes a and b
        d2.push(vec![0]); // a = 2 → 0.1
        for _ in 0..4 {
            d2.push(vec![1, 2]); // bc = 4 → 0.2; b += 4, c += 4
        }
        d2.push(vec![1]); // b = 1 + 4 + 1 = 6 → 0.3
        for _ in 0..6 {
            d2.push(vec![2]); // c = 4 + 6 = 10 → 0.5
        }
        while d2.len() < 20 {
            d2.push(vec![]);
        }
        (d1, d2)
    }

    fn figure6_models(d1: &TransactionSet, d2: &TransactionSet) -> (LitsModel, LitsModel) {
        // L1 = {a, b, ab}; L2 = {b, c, bc} (minsup 0.25 on each side).
        let l1 = crate::model::induce_lits_measures(
            vec![
                Itemset::from_slice(&[0]),
                Itemset::from_slice(&[1]),
                Itemset::from_slice(&[0, 1]),
            ],
            0.25,
            d1,
        );
        let l2 = crate::model::induce_lits_measures(
            vec![
                Itemset::from_slice(&[1]),
                Itemset::from_slice(&[2]),
                Itemset::from_slice(&[1, 2]),
            ],
            0.25,
            d2,
        );
        (l1, l2)
    }

    #[test]
    fn paper_figure_6_sum_deviation() {
        // Section 2.2: δ(f_a, g_sum)(L1, L2)
        //   = |0.5−0.1| + |0.4−0.3| + |0.1−0.5| + |0.25−0.05| + |0.05−0.2|
        //   = 0.4 + 0.1 + 0.4 + 0.2 + 0.15 = 1.25.
        // (The paper prints the total as "1.125", but the five per-region
        // terms it lists sum to 1.25 — an arithmetic slip in the paper; we
        // assert the correct sum of its own terms.)
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let (d1, d2) = figure6_datasets();
        let (l1, l2) = figure6_models(&d1, &d2);
        let dev = deviate::<LitsFamily>(&l1, &d1, &l2, &d2, f, g, par);
        assert!((dev.value - 1.25).abs() < 1e-12, "got {}", dev.value);
        assert_eq!(dev.gcr.len(), 5);
        // Cross-check the five per-region contributions individually.
        let mut per: Vec<f64> = dev.per_region.clone();
        per.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut expected = [0.4, 0.1, 0.4, 0.2, 0.15];
        expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (p, e) in per.iter().zip(expected) {
            assert!((p - e).abs() < 1e-12, "{p} vs {e}");
        }
    }

    #[test]
    fn paper_figure_6_max_deviation_is_0_4() {
        // Section 4.1: δ(f_a, g_max)(L1, L2) = 0.4.
        let (d1, d2) = figure6_datasets();
        let (l1, l2) = figure6_models(&d1, &d2);
        let dev = deviate::<LitsFamily>(
            &l1,
            &d1,
            &l2,
            &d2,
            DiffFn::Absolute,
            AggFn::Max,
            Parallelism::Global,
        );
        assert!((dev.value - 0.4).abs() < 1e-12, "got {}", dev.value);
    }

    #[test]
    fn lits_deviation_identical_models_is_zero() {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let (d1, _) = figure6_datasets();
        let (l1, _) = figure6_models(&d1, &d1);
        let dev = deviate::<LitsFamily>(&l1, &d1, &l1, &d1, f, g, par);
        assert_eq!(dev.value, 0.0);
    }

    #[test]
    fn lits_focussed_restricts_universe() {
        let (d1, d2) = figure6_datasets();
        let (l1, l2) = figure6_models(&d1, &d2);
        // Focus on items {a, b} = {0, 1}: only a, b, ab participate.
        let dev = deviate_focussed::<LitsFamily>(
            &l1,
            &d1,
            &l2,
            &d2,
            &[0, 1],
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Global,
        );
        // |0.5−0.1| + |0.4−0.3| + |0.25−0.05| = 0.7
        assert!((dev.value - 0.7).abs() < 1e-12, "got {}", dev.value);
        assert_eq!(dev.gcr.len(), 3);
    }

    #[test]
    fn deviation_fixed_matches_manual() {
        let v = deviation_fixed(
            &[5, 0],
            &[1, 2],
            10,
            10,
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Global,
        );
        assert!((v - (0.4 + 0.2)).abs() < 1e-12);
        let m = deviation_fixed(
            &[5, 0],
            &[1, 2],
            10,
            10,
            DiffFn::Absolute,
            AggFn::Max,
            Parallelism::Global,
        );
        assert!((m - 0.4).abs() < 1e-12);
    }

    #[test]
    fn deviation_fixed_defined_on_empty_datasets() {
        // Regression: n1 == 0 or n2 == 0 used to produce NaN for f_s (0/0)
        // and f_χ² (zero expectation); an empty dataset now counts as
        // selectivity 0 everywhere.
        for f in [
            DiffFn::Absolute,
            DiffFn::Scaled,
            DiffFn::ChiSquared { c: 0.5 },
        ] {
            for g in [AggFn::Sum, AggFn::Max] {
                let one_empty = deviation_fixed(&[5, 0], &[1, 2], 0, 10, f, g, Parallelism::Global);
                assert!(one_empty.is_finite(), "{f:?}/{g:?}: {one_empty}");
                let other_empty =
                    deviation_fixed(&[5, 0], &[1, 2], 10, 0, f, g, Parallelism::Global);
                assert!(other_empty.is_finite(), "{f:?}/{g:?}: {other_empty}");
                let both_empty = deviation_fixed(&[0, 0], &[0, 0], 0, 0, f, g, Parallelism::Global);
                assert!(both_empty.is_finite(), "{f:?}/{g:?}: {both_empty}");
            }
        }
        // Two genuinely empty measure components do not deviate at all
        // under f_a — the defined value is exactly 0.
        assert_eq!(
            deviation_fixed(
                &[0, 0],
                &[0, 0],
                0,
                0,
                DiffFn::Absolute,
                AggFn::Sum,
                Parallelism::Global
            ),
            0.0
        );
        // Against an empty side, f_a degenerates to the populated side's
        // total selectivity mass: 0.1 + 0.2 here.
        let v = deviation_fixed(
            &[0, 0],
            &[1, 2],
            0,
            10,
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Global,
        );
        assert!((v - 0.3).abs() < 1e-12, "got {v}");
    }

    #[test]
    fn lits_deviation_with_empty_dataset_is_defined() {
        let (d1, _) = figure6_datasets();
        let (l1, _) = figure6_models(&d1, &d1);
        let empty = TransactionSet::new(3);
        let empty_model = crate::model::induce_lits_measures(Vec::new(), 0.25, &empty);
        for f in [
            DiffFn::Absolute,
            DiffFn::Scaled,
            DiffFn::ChiSquared { c: 0.5 },
        ] {
            let dev = deviate::<LitsFamily>(
                &l1,
                &d1,
                &empty_model,
                &empty,
                f,
                AggFn::Sum,
                Parallelism::Global,
            );
            assert!(dev.value.is_finite(), "{f:?}: {}", dev.value);
            assert!(dev.per_region.iter().all(|d| d.is_finite()));
        }
    }

    // ---------------- dt ----------------

    /// Two one-attribute datasets and trees mirroring the paper's Figure 5
    /// structure (different split points ⇒ non-trivial overlay).
    fn dt_fixture() -> (Arc<Schema>, LabeledTable, LabeledTable, DtModel, DtModel) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("age")]));
        let mut d1 = LabeledTable::new(Arc::clone(&schema), 2);
        let mut d2 = LabeledTable::new(Arc::clone(&schema), 2);
        // D1: ages 0..100; class = age < 30.
        for i in 0..100 {
            let age = i as f64;
            d1.push_row(&[Value::Num(age)], u32::from(age < 30.0));
        }
        // D2: class boundary at 50 instead.
        for i in 0..100 {
            let age = i as f64;
            d2.push_row(&[Value::Num(age)], u32::from(age < 50.0));
        }
        let t1 = induce_dt_measures(
            vec![
                BoxBuilder::new(&schema).lt("age", 30.0).build(),
                BoxBuilder::new(&schema).ge("age", 30.0).build(),
            ],
            &d1,
        );
        let t2 = induce_dt_measures(
            vec![
                BoxBuilder::new(&schema).lt("age", 50.0).build(),
                BoxBuilder::new(&schema).ge("age", 50.0).build(),
            ],
            &d2,
        );
        (schema, d1, d2, t1, t2)
    }

    #[test]
    fn dt_deviation_overlay_and_value() {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let (_s, d1, d2, t1, t2) = dt_fixture();
        let dev = deviate::<DtFamily>(&t1, &d1, &t2, &d2, f, g, par);
        // Overlay cells: [<30), [30,50), [≥50) — 3 cells.
        assert_eq!(dev.gcr.cells.len(), 3);
        // Manual: cell [0,30): D1 class1 sel = .30, class0 0; D2 class1 .30.
        //   diffs: |0.30−0.30| + |0−0| = 0
        // cell [30,50): D1 class0 .20; D2 class1 .20 → |0−.20| + |.20−0| = .4
        // cell [50,∞): both class0 .50 → 0. Total = 0.4.
        assert!((dev.value - 0.4).abs() < 1e-12, "got {}", dev.value);
    }

    #[test]
    fn dt_deviation_identical_is_zero() {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let (_s, d1, _d2, t1, _t2) = dt_fixture();
        let dev = deviate::<DtFamily>(&t1, &d1, &t1, &d1, f, g, par);
        assert_eq!(dev.value, 0.0);
    }

    #[test]
    fn dt_deviation_focussed_on_region() {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let (s, d1, d2, t1, t2) = dt_fixture();
        // Focus on age < 30: that slice agrees in both datasets → 0.
        let focus = BoxBuilder::new(&s).lt("age", 30.0).build();
        let dev = deviate_focussed::<DtFamily>(&t1, &d1, &t2, &d2, &focus, f, g, par);
        assert_eq!(dev.value, 0.0);
        // Focus on the disputed band [30, 50): full disagreement 0.4.
        let focus = BoxBuilder::new(&s).range("age", 30.0, 50.0).build();
        let dev = deviate_focussed::<DtFamily>(&t1, &d1, &t2, &d2, &focus, f, g, par);
        assert!((dev.value - 0.4).abs() < 1e-12);
    }

    #[test]
    fn dt_focussed_monotonicity_for_fa() {
        // Section 5 remark: for f_a and g ∈ {sum, max}, ρ ⊆ ρ′ implies
        // δρ ≤ δρ′.
        let (s, d1, d2, t1, t2) = dt_fixture();
        let small = BoxBuilder::new(&s).range("age", 35.0, 45.0).build();
        let large = BoxBuilder::new(&s).range("age", 20.0, 60.0).build();
        for g in [AggFn::Sum, AggFn::Max] {
            let ds = deviate_focussed::<DtFamily>(
                &t1,
                &d1,
                &t2,
                &d2,
                &small,
                DiffFn::Absolute,
                g,
                Parallelism::Global,
            );
            let dl = deviate_focussed::<DtFamily>(
                &t1,
                &d1,
                &t2,
                &d2,
                &large,
                DiffFn::Absolute,
                g,
                Parallelism::Global,
            );
            assert!(ds.value <= dl.value + 1e-12, "{:?}", g);
        }
    }

    #[test]
    fn dt_deviation_chi_squared_zero_when_identical() {
        let (_s, d1, _d2, t1, _t2) = dt_fixture();
        let dev = deviate::<DtFamily>(
            &t1,
            &d1,
            &t1,
            &d1,
            DiffFn::ChiSquared { c: 0.5 },
            AggFn::Sum,
            Parallelism::Global,
        );
        // Identical structure & data: every populated cell contributes 0,
        // but empty-expected cells contribute c each. With a perfect split
        // there are two zero-expectation regions (class 0 in the <30 leaf,
        // class 1 in the ≥30 leaf): value = 2c = 1.0.
        assert!((dev.value - 1.0).abs() < 1e-12, "got {}", dev.value);
    }

    // ---------------- cluster ----------------

    #[test]
    fn cluster_deviation_basics() {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut d1 = crate::data::Table::new(Arc::clone(&schema));
        let mut d2 = crate::data::Table::new(Arc::clone(&schema));
        for i in 0..10 {
            d1.push_row(&[Value::Num(i as f64)]); // clustered low
            d2.push_row(&[Value::Num(i as f64 + 5.0)]); // shifted by 5
        }
        let c1 = ClusterModel::new(
            vec![BoxBuilder::new(&schema).range("x", 0.0, 10.0).build()],
            vec![1.0],
            10,
        );
        let c2 = ClusterModel::new(
            vec![BoxBuilder::new(&schema).range("x", 5.0, 15.0).build()],
            vec![1.0],
            10,
        );
        let dev = deviate::<ClusterFamily>(&c1, &d1, &c2, &d2, f, g, par);
        // GCR: [5,10) ∩, [0,5) rem of c1, [10,15) rem of c2.
        // sel1: [5,10)=0.5, [0,5)=0.5, [10,15)=0.0
        // sel2: [5,10)=0.5, [0,5)=0.0, [10,15)=0.5
        // δ = 0 + 0.5 + 0.5 = 1.0.
        assert_eq!(dev.gcr.len(), 3);
        assert!((dev.value - 1.0).abs() < 1e-12, "got {}", dev.value);
        // Identical models/datasets deviate by zero.
        let same = deviate::<ClusterFamily>(&c1, &d1, &c1, &d1, f, g, par);
        assert_eq!(same.value, 0.0);
    }

    #[test]
    fn cluster_deviation_focus_restricts() {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut d1 = crate::data::Table::new(Arc::clone(&schema));
        let mut d2 = crate::data::Table::new(Arc::clone(&schema));
        for i in 0..10 {
            d1.push_row(&[Value::Num(i as f64)]);
            d2.push_row(&[Value::Num(i as f64 + 5.0)]);
        }
        let c1 = ClusterModel::new(
            vec![BoxBuilder::new(&schema).range("x", 0.0, 10.0).build()],
            vec![1.0],
            10,
        );
        let c2 = ClusterModel::new(
            vec![BoxBuilder::new(&schema).range("x", 5.0, 15.0).build()],
            vec![1.0],
            10,
        );
        // Focus on [5, 10): the shared region where both agree (0.5 vs 0.5).
        let focus = BoxBuilder::new(&schema).range("x", 5.0, 10.0).build();
        let dev = deviate_focussed::<ClusterFamily>(&c1, &d1, &c2, &d2, &focus, f, g, par);
        assert_eq!(dev.value, 0.0);
    }
}
