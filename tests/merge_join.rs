//! Differential test of the lits GCR path against the sort-and-search path
//! it replaced.
//!
//! The lits GCR, the δ* bound of Definition 4.1 and measure extension all
//! walk one sort-merge join over the two models' sorted itemset lists. The
//! reference below is the earlier implementation, kept verbatim as test
//! code: clone both families into one vector, sort, dedup, then look every
//! GCR itemset up in each model by binary search. On random models, with
//! empty, one-sided, identical and disjoint pairs among them, the GCR, the
//! bound (sum and max) and both sides' measures must agree bit for bit, on
//! the full GCR and on ρ-restricted ones.
//!
//! The dt case checks the cell scan's re-check rule: the plain overlay is
//! counted without re-checking each row against its cell, a focussed or
//! hand-built GCR with it, and every count equals a brute-force count that
//! tests each row against every cell.

use focus::core::prelude::*;
use focus::data::classify::{ClassifyFn, ClassifyGen};
use focus::tree::{DecisionTree, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Reference GCR: the union of both families, cloned, sorted, deduplicated.
fn reference_gcr(a: &[Itemset], b: &[Itemset]) -> Vec<Itemset> {
    let mut out: Vec<Itemset> = a.iter().chain(b.iter()).cloned().collect();
    out.sort();
    out.dedup();
    out
}

/// Reference δ*: Definition 4.1 over the reference GCR, each support found
/// by binary search.
fn reference_bound(m1: &LitsModel, m2: &LitsModel, g: AggFn) -> f64 {
    let gcr = reference_gcr(m1.itemsets(), m2.itemsets());
    g.eval(
        gcr.iter()
            .map(|x| match (m1.support_of(x), m2.support_of(x)) {
                (Some(s1), Some(s2)) => (s1 - s2).abs(),
                (Some(s1), None) => s1,
                (None, Some(s2)) => s2,
                (None, None) => unreachable!("GCR itemset missing from both models"),
            }),
    )
}

/// Reference measure extension: the model's own support where it records
/// one (binary search), a count through `source` otherwise.
fn reference_measures(
    regions: &[Itemset],
    model: &LitsModel,
    source: &CountSource<'_>,
) -> Vec<f64> {
    let mut supports = vec![0.0f64; regions.len()];
    let mut missing: Vec<usize> = Vec::new();
    for (i, s) in regions.iter().enumerate() {
        match model.support_of(s) {
            Some(sup) => supports[i] = sup,
            None => missing.push(i),
        }
    }
    if !missing.is_empty() {
        let to_count: Vec<Itemset> = missing.iter().map(|&i| regions[i].clone()).collect();
        let counts = source.counts(&to_count, Parallelism::Sequential);
        let n = source.len().max(1) as f64;
        for (slot, &c) in missing.iter().zip(&counts) {
            supports[*slot] = c as f64 / n;
        }
    }
    supports
}

/// A random model of up to `max_sets` itemsets (duplicates included, which
/// the constructor folds) over items `offset .. offset + n_items`, with
/// supports on a coarse grid so equal supports occur.
fn random_model(rng: &mut StdRng, max_sets: usize, offset: u32, n_items: u32) -> LitsModel {
    let n = rng.gen_range(0..max_sets + 1);
    let itemsets: Vec<Itemset> = (0..n)
        .map(|_| {
            let len = rng.gen_range(1..4u32.min(n_items) + 1);
            Itemset::new(
                (0..len)
                    .map(|_| offset + rng.gen_range(0..n_items))
                    .collect(),
            )
        })
        .collect();
    let supports = (0..n)
        .map(|_| rng.gen_range(1..21u32) as f64 / 20.0)
        .collect();
    LitsModel::new(itemsets, supports, 0.05, 100)
}

fn random_transactions(rng: &mut StdRng, n: usize, n_items: u32) -> TransactionSet {
    let mut data = TransactionSet::new(n_items);
    for _ in 0..n {
        data.push((0..n_items).filter(|_| rng.gen::<f64>() < 0.4).collect());
    }
    data
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Per-(cell, class) counts of `data` by testing every row against every
/// cell: the definition the indexed scan must reproduce.
fn brute_force_cells(gcr: &DtGcr, data: &LabeledTable) -> Vec<f64> {
    let k = gcr.n_classes as usize;
    let mut counts = vec![0.0; gcr.cells.len() * k];
    for r in 0..data.len() {
        let (row, label) = (data.table.row(r), data.labels[r]);
        for (idx, cell) in gcr.cells.iter().enumerate() {
            if cell.region.contains_labeled(row, label) {
                counts[idx * k + label as usize] += 1.0;
            }
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// GCR, bound and measures of the merge join equal the reference's bit
    /// for bit. `shape` picks the pair: 0 random overlap, 1 both empty,
    /// 2 one side empty, 3 identical, 4 disjoint item universes.
    #[test]
    fn lits_merge_join_equals_sort_and_search(seed in 0u64..1_000_000, shape in 0u8..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_items = rng.gen_range(1..10u32);
        let m1 = match shape {
            1 => random_model(&mut rng, 0, 0, n_items),
            _ => random_model(&mut rng, 40, 0, n_items),
        };
        let m2 = match shape {
            1 | 2 => random_model(&mut rng, 0, 0, n_items),
            3 => m1.clone(),
            4 => random_model(&mut rng, 40, n_items, n_items),
            _ => random_model(&mut rng, 40, 0, n_items),
        };
        let (m1, m2) = if rng.gen::<bool>() { (m1, m2) } else { (m2, m1) };
        let d1 = random_transactions(&mut rng, 60, 2 * n_items);
        let d2 = random_transactions(&mut rng, 45, 2 * n_items);
        let (s1, s2) = (CountSource::borrowed(&d1), CountSource::borrowed(&d2));

        let gcr = LitsFamily::gcr(&m1, &m2);
        prop_assert_eq!(&gcr, &reference_gcr(m1.itemsets(), m2.itemsets()));
        prop_assert_eq!(&gcr, &gcr_lits(m1.itemsets(), m2.itemsets()));
        for g in [AggFn::Sum, AggFn::Max] {
            prop_assert_eq!(lits_upper_bound(&m1, &m2, g).to_bits(),
                            reference_bound(&m1, &m2, g).to_bits(), "bound {:?}", g);
        }

        // The full GCR and two ρ-restrictions of it: a random item universe
        // and the empty one.
        let universe: Vec<u32> = (0..2 * n_items).filter(|_| rng.gen::<bool>()).collect();
        for focus in [(0..2 * n_items).collect::<Vec<u32>>(), universe, Vec::new()] {
            let regions = LitsFamily::restrict(gcr.clone(), &focus);
            let expect: Vec<Itemset> = reference_gcr(m1.itemsets(), m2.itemsets())
                .into_iter()
                .filter(|s| s.items().iter().all(|i| focus.contains(i)))
                .collect();
            prop_assert_eq!(&regions, &expect);
            for (source, side, own) in [(&s1, Side::Left, &m1), (&s2, Side::Right, &m2)] {
                let got = LitsFamily::measures(&regions, &m1, &m2, source, side,
                                               Parallelism::Sequential);
                prop_assert_eq!(bits(&got), bits(&reference_measures(&regions, own, source)),
                                "{:?} measures over {} regions", side, regions.len());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The plain overlay, scanned without the per-row re-check, counts what
    /// the same cells count with it (a hand-built `DtGcr`) and what a
    /// brute-force scan counts; a focussed GCR re-checks and matches its
    /// brute-force count too.
    #[test]
    fn dt_cell_scan_recheck_only_where_needed(seed in 0u64..1_000_000,
                                              depth in 1usize..7,
                                              lo in 20_000.0f64..150_000.0,
                                              class in 0u32..3) {
        let d1 = ClassifyGen::new(ClassifyFn::F2).generate(400, seed);
        let d2 = ClassifyGen::new(ClassifyFn::F3).generate(300, seed ^ 1);
        let params = TreeParams::default().max_depth(depth).min_leaf(5);
        let t1 = DecisionTree::fit(&d1, params).to_model();
        let t2 = DecisionTree::fit(&d2, params).to_model();
        let k = t1.n_classes();

        let plain = DtFamily::gcr(&t1, &t2);
        let rechecked = DtGcr::new(plain.cells.clone(), k);
        let schema = d1.table.schema();
        let rho = BoxBuilder::new(schema).range("salary", lo, lo + 40_000.0).build();
        let rho_class = BoxBuilder::new(schema).ge("age", 40.0).class(class % k).build();
        for data in [&d1, &d2] {
            let scan = |gcr: &DtGcr| {
                DtFamily::measures(gcr, &t1, &t2, &data, Side::Left, Parallelism::Threads(2))
            };
            let expect = brute_force_cells(&plain, data);
            prop_assert_eq!(bits(&scan(&plain)), bits(&expect), "plain overlay");
            prop_assert_eq!(bits(&scan(&rechecked)), bits(&expect), "re-checked overlay");
            for rho in [&rho, &rho_class] {
                let focussed = DtFamily::restrict(plain.clone(), rho);
                prop_assert_eq!(bits(&scan(&focussed)), bits(&brute_force_cells(&focussed, data)),
                                "focussed on {:?}", rho);
            }
        }
    }
}
