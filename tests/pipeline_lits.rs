//! End-to-end lits-model pipeline: synthetic generator → Apriori →
//! deviation → upper bound → bootstrap qualification — the complete
//! Figure 13 machinery at test scale.

use focus::core::prelude::*;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::mining::{Apriori, AprioriParams};

const MINSUP: f64 = 0.02;

fn miner() -> Apriori {
    Apriori::new(
        AprioriParams::with_minsup(MINSUP)
            .max_len(8)
            .min_count_floor(3),
    )
}

fn mine(d: &TransactionSet) -> LitsModel {
    miner().mine(d)
}

fn deviation(a: &TransactionSet, b: &TransactionSet) -> f64 {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let ma = mine(a);
    let mb = mine(b);
    deviate::<LitsFamily>(&ma, a, &mb, b, f, g, par).value
}

#[test]
fn same_process_deviation_is_small_and_insignificant() {
    let process = AssocGen::new(AssocGenParams::small(), 3);
    let d1 = process.generate(2500, 1);
    let d2 = process.generate(2500, 2);
    let obs = deviation(&d1, &d2);
    let q = qualify(&d1, &d2, obs, 29, 9, Parallelism::Global, deviation);
    // Not flagged: 21 of 29 permutation replicates lie below.
    assert_eq!(q.significance_percent, 72.41379310344827);
}

#[test]
fn drifted_process_deviation_is_large_and_significant() {
    let p1 = AssocGen::new(AssocGenParams::small(), 3);
    let mut drifted_params = AssocGenParams::small();
    drifted_params.avg_pattern_len = 7.0;
    let p2 = AssocGen::new(drifted_params, 4);
    let d1 = p1.generate(2500, 1);
    let d2 = p2.generate(2500, 2);
    let obs = deviation(&d1, &d2);
    let q = qualify(&d1, &d2, obs, 29, 9, Parallelism::Global, deviation);
    assert_eq!(q.significance_percent, 100.0);
    // The drifted deviation dwarfs the same-process one.
    let same = deviation(&d1, &p1.generate(2500, 7));
    assert!(obs > 2.0 * same, "obs {obs} vs same-process {same}");
}

#[test]
fn appended_block_detection() {
    // Figure 13 rows (5)–(7): D extended with a small block from another
    // process deviates measurably more from D than a same-process extension.
    let base = AssocGen::new(AssocGenParams::small(), 5);
    let d = base.generate(3000, 1);
    let mut other_params = AssocGenParams::small();
    other_params.avg_pattern_len = 7.0;
    let other = AssocGen::new(other_params, 6);

    let d_plus_same = d.concat(&base.generate(300, 2));
    let d_plus_drift = d.concat(&other.generate(300, 3));
    let dev_same = deviation(&d, &d_plus_same);
    let dev_drift = deviation(&d, &d_plus_drift);
    assert!(
        dev_drift > dev_same,
        "drift block {dev_drift} vs same block {dev_same}"
    );
}

#[test]
fn upper_bound_dominates_and_is_fast_to_agree() {
    let p1 = AssocGen::new(AssocGenParams::small(), 8);
    let mut pp = AssocGenParams::small();
    pp.n_patterns = 120;
    let p2 = AssocGen::new(pp, 9);
    let d1 = p1.generate(2000, 1);
    let d2 = p2.generate(2000, 2);
    let m1 = mine(&d1);
    let m2 = mine(&d2);
    for g in [AggFn::Sum, AggFn::Max] {
        let bound = lits_upper_bound(&m1, &m2, g);
        let exact =
            deviate::<LitsFamily>(&m1, &d1, &m2, &d2, DiffFn::Absolute, g, Parallelism::Global)
                .value;
        assert!(bound >= exact - 1e-12, "{g:?}: {bound} < {exact}");
    }
    // δ* is symmetric and zero on identical models.
    assert_eq!(
        lits_upper_bound(&m1, &m2, AggFn::Sum),
        lits_upper_bound(&m2, &m1, AggFn::Sum)
    );
    assert_eq!(lits_upper_bound(&m1, &m1, AggFn::Sum), 0.0);
}

#[test]
fn focussed_deviation_never_exceeds_total_for_fa() {
    // Section 5 monotonicity remark, at pipeline level: restricting the
    // item universe can only reduce δ(f_a, g).
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let p1 = AssocGen::new(AssocGenParams::small(), 10);
    let p2 = AssocGen::new(AssocGenParams::small(), 11);
    let d1 = p1.generate(2000, 1);
    let d2 = p2.generate(2000, 2);
    let m1 = mine(&d1);
    let m2 = mine(&d2);
    let total = deviate::<LitsFamily>(&m1, &d1, &m2, &d2, f, g, par).value;
    for hi in [10u32, 40, 80, 100] {
        let universe: Vec<u32> = (0..hi).collect();
        let focussed =
            deviate_focussed::<LitsFamily>(&m1, &d1, &m2, &d2, &universe, f, g, par).value;
        assert!(focussed <= total + 1e-9, "universe 0..{hi}");
    }
    // The full universe recovers the total exactly.
    let universe: Vec<u32> = (0..100).collect();
    let full = deviate_focussed::<LitsFamily>(&m1, &d1, &m2, &d2, &universe, f, g, par).value;
    assert!((full - total).abs() < 1e-12);
}

#[test]
fn rank_and_select_over_structural_union() {
    // The Section 5.1 expression: rank the structural union by per-region
    // deviation and select the top region.
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let p1 = AssocGen::new(AssocGenParams::small(), 12);
    let mut pp = AssocGenParams::small();
    pp.avg_pattern_len = 6.0;
    let p2 = AssocGen::new(pp, 13);
    let d1 = p1.generate(2000, 1);
    let d2 = p2.generate(2000, 2);
    let m1 = mine(&d1);
    let m2 = mine(&d2);
    let dev = deviate::<LitsFamily>(&m1, &d1, &m2, &d2, f, g, par);
    let union = lits_union(m1.itemsets(), m2.itemsets());
    assert_eq!(union, dev.gcr, "structural union IS the GCR for lits");
    let ranked = rank(union, |s| dev.per_region[dev.gcr.binary_search(s).unwrap()]);
    let top = select_top(&ranked).expect("non-empty");
    // The top region's deviation equals the max per-region difference,
    // which is δ(f_a, g_max).
    let max_dev = deviate::<LitsFamily>(
        &m1,
        &d1,
        &m2,
        &d2,
        DiffFn::Absolute,
        AggFn::Max,
        Parallelism::Global,
    )
    .value;
    assert!((top.deviation - max_dev).abs() < 1e-12);
    // Selections behave.
    assert_eq!(select_top_n(&ranked, 10).len(), 10.min(ranked.len()));
    assert!(select_min(&ranked).unwrap().deviation <= top.deviation);
}

#[test]
fn mining_and_extending_share_one_index_per_dataset() {
    // The `deviate` command's shape: one source per dataset, mined and then
    // extended through the same handle. Level 3 of this workload counts
    // vertically, so mining leaves the index cached and the extension
    // reuses it instead of building a second one.
    let p1 = AssocGen::new(AssocGenParams::small(), 14);
    let mut pp = AssocGenParams::small();
    pp.avg_pattern_len = 6.0;
    let p2 = AssocGen::new(pp, 15);
    let d1 = p1.generate(2500, 1);
    let d2 = p2.generate(2500, 2);
    let (s1, s2) = (CountSource::borrowed(&d1), CountSource::borrowed(&d2));
    let (m1, m2) = (miner().mine_source(&s1), miner().mine_source(&s2));
    assert!(m1.itemsets().iter().any(|s| s.len() >= 3));
    assert!(
        s1.index_built() && s2.index_built(),
        "level 3 went vertical"
    );
    assert_eq!((m1.clone(), m2.clone()), (mine(&d1), mine(&d2)));

    for (f, g) in [(DiffFn::Absolute, AggFn::Sum), (DiffFn::Scaled, AggFn::Max)] {
        let gcr = LitsFamily::gcr(&m1, &m2);
        let shared =
            deviate_over_sources::<LitsFamily>(gcr, &m1, &s1, &m2, &s2, f, g, Parallelism::Global);
        let fresh = deviate::<LitsFamily>(&m1, &d1, &m2, &d2, f, g, Parallelism::Global);
        assert_eq!(shared.value.to_bits(), fresh.value.to_bits(), "{f:?} {g:?}");
        assert_eq!(shared.gcr, fresh.gcr);
        for (a, b) in [
            (&shared.raw1, &fresh.raw1),
            (&shared.raw2, &fresh.raw2),
            (&shared.per_region, &fresh.per_region),
        ] {
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(a), bits(b), "{f:?} {g:?}");
        }
    }
}
