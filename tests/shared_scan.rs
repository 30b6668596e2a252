//! Differential test of the matrix's per-snapshot exact phase against the
//! per-pair scan it replaced.
//!
//! The screened matrix extends each snapshot once against every partner
//! model it shares a surviving pair with (`ModelFamily::extend`: one
//! routing pass per tree for dt, one count of the union of missing
//! itemsets for lits, one box count per partner for cluster), then folds
//! each pair. The reference below is the earlier phase: every dataset
//! loaded, and for each surviving pair, both sides measured on their own
//! over the pair's built GCR (a support lookup plus a count of the
//! itemsets the side's model lacks for lits, a re-checked cell scan
//! through both trees for dt, a box count for cluster), then `f` per
//! region and `g` over the participating ones.
//!
//! On random lits, dt and cluster collections with empty models,
//! identical snapshots (so `--top` ties occur) and snapshots whose every
//! pair is pruned, under threshold and top-K screening, every exact cell
//! must be bit-identical to the reference, sequentially and at 1, 2, 4
//! and 7 threads. One-pair focussed GCRs (`deviate_focussed`, and a dt
//! `DtGcr::new`, which re-checks every row) take the same extension code
//! and are checked against the reference too.

use focus::cluster::{KMeans, KMeansParams};
use focus::core::prelude::*;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::data::classify::{ClassifyFn, ClassifyGen};
use focus::mining::{Apriori, AprioriParams};
use focus::registry::{deviation_matrix, MatrixParams};
use focus::tree::{DecisionTree, TreeParams};

const PARS: [Parallelism; 5] = [
    Parallelism::Sequential,
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Threads(7),
];

/// A family with the earlier per-pair measure extension of one side.
trait Reference: ModelFamily {
    fn reference_measures(
        gcr: &Self::Gcr,
        m1: &Self::Model,
        m2: &Self::Model,
        data: &Self::Dataset,
        side: Side,
    ) -> Vec<f64>;
}

impl Reference for LitsFamily {
    /// The side's own support where its model records one, a count of
    /// the pair's remaining regions otherwise.
    fn reference_measures(
        regions: &Vec<Itemset>,
        m1: &LitsModel,
        m2: &LitsModel,
        data: &TransactionSet,
        side: Side,
    ) -> Vec<f64> {
        let own = if side == Side::Left { m1 } else { m2 };
        let source = CountSource::borrowed(data);
        let mut supports = vec![0.0f64; regions.len()];
        let mut missing: Vec<usize> = Vec::new();
        for (i, s) in regions.iter().enumerate() {
            match own.support_of(s) {
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
}

impl Reference for DtFamily {
    /// Each row located in both trees, its leaf pair mapped to its cell,
    /// and the row re-checked against that cell.
    fn reference_measures(
        gcr: &DtGcr,
        m1: &DtModel,
        m2: &DtModel,
        data: &LabeledTable,
        _side: Side,
    ) -> Vec<f64> {
        let k = gcr.n_classes as usize;
        let l2 = m2.leaves().len();
        let mut cell_of = vec![None; m1.leaves().len() * l2];
        for (idx, c) in gcr.cells.iter().enumerate() {
            if c.left < m1.leaves().len() && c.right < l2 {
                cell_of[c.left * l2 + c.right] = Some(idx);
            }
        }
        let mut counts = vec![0u64; gcr.cells.len() * k];
        for r in 0..data.len() {
            let row = data.table.row(r);
            let label = data.labels[r];
            let (Some(i), Some(j)) = (m1.locate(row), m2.locate(row)) else {
                continue;
            };
            if let Some(idx) = cell_of[i * l2 + j] {
                if gcr.cells[idx].region.contains_labeled(row, label) {
                    counts[idx * k + label as usize] += 1;
                }
            }
        }
        counts.into_iter().map(|c| c as f64).collect()
    }
}

impl Reference for ClusterFamily {
    fn reference_measures(
        gcr: &Vec<BoxRegion>,
        _m1: &ClusterModel,
        _m2: &ClusterModel,
        data: &Table,
        _side: Side,
    ) -> Vec<f64> {
        count_boxes(data, gcr, Parallelism::Sequential)
            .into_iter()
            .map(|c| c as f64)
            .collect()
    }
}

/// The earlier per-pair deviation over `gcr`: both sides measured on
/// their own, `f` per region, `g` over the participating regions.
fn reference_deviation<F: Reference>(
    gcr: &F::Gcr,
    (m1, d1): (&F::Model, &F::Dataset),
    (m2, d2): (&F::Model, &F::Dataset),
    f: DiffFn,
    g: AggFn,
) -> f64 {
    let raw1 = F::reference_measures(gcr, m1, m2, d1, Side::Left);
    let raw2 = F::reference_measures(gcr, m1, m2, d2, Side::Right);
    let (n1, n2) = (F::data_len(d1), F::data_len(d2));
    let per_region: Vec<f64> = (0..raw1.len())
        .map(|i| {
            if F::participates(gcr, i) {
                f.eval(
                    F::abs_measure(raw1[i], n1),
                    F::abs_measure(raw2[i], n2),
                    n1 as f64,
                    n2 as f64,
                )
            } else {
                0.0
            }
        })
        .collect();
    g.eval(
        per_region
            .iter()
            .enumerate()
            .filter(|&(i, _)| F::participates(gcr, i))
            .map(|(_, &d)| d),
    )
}

fn pairs(n: usize) -> Vec<(usize, usize)> {
    (0..n)
        .flat_map(|i| ((i + 1)..n).map(move |j| (i, j)))
        .collect()
}

/// The earlier phase 2: the surviving pairs screened as the matrix
/// documents it, each deviated on its own; `None` for a pruned pair.
fn reference_cells<F: Reference>(
    models: &[F::Model],
    datasets: &[F::Dataset],
    params: &MatrixParams,
) -> Vec<Option<f64>> {
    let pairs = pairs(models.len());
    let bound = |&(i, j): &(usize, usize)| {
        F::upper_bound(&models[i], &models[j], params.agg).expect("every family has a bound")
    };
    let dominated: Vec<bool> = pairs
        .iter()
        .map(|&(i, j)| F::bound_dominates(params.diff, &models[i], &models[j]))
        .collect();
    let keep: Vec<bool> = match params.top {
        None => (0..pairs.len())
            .map(|p| !dominated[p] || bound(&pairs[p]) > params.threshold)
            .collect(),
        Some(k) => {
            let mut ranked: Vec<usize> = (0..pairs.len()).filter(|&p| dominated[p]).collect();
            ranked.sort_by(|&a, &b| {
                bound(&pairs[b])
                    .total_cmp(&bound(&pairs[a]))
                    .then(a.cmp(&b))
            });
            ranked.truncate(k);
            (0..pairs.len())
                .map(|p| !dominated[p] || ranked.contains(&p))
                .collect()
        }
    };
    pairs
        .iter()
        .zip(keep)
        .map(|(&(i, j), keep)| {
            keep.then(|| {
                reference_deviation::<F>(
                    &F::gcr(&models[i], &models[j]),
                    (&models[i], &datasets[i]),
                    (&models[j], &datasets[j]),
                    params.diff,
                    params.agg,
                )
            })
        })
        .collect()
}

/// Threshold and top-K screening, both aggregates, and two undominated
/// difference functions, one of them asymmetric (χ², so a pair folded
/// with its sides swapped differs); `mid` is a threshold inside the bound
/// range.
fn sweep(mid: f64) -> Vec<MatrixParams> {
    let base = MatrixParams::default();
    let mut out = vec![
        base,
        MatrixParams {
            threshold: mid,
            ..base
        },
        MatrixParams {
            threshold: f64::INFINITY,
            ..base
        },
        MatrixParams {
            agg: AggFn::Max,
            ..base
        },
        MatrixParams {
            diff: DiffFn::Scaled,
            ..base
        },
        MatrixParams {
            diff: DiffFn::ChiSquared { c: 0.5 },
            ..base
        },
    ];
    for k in [0, 1, 2, 4] {
        out.push(MatrixParams {
            top: Some(k),
            ..base
        });
    }
    out
}

/// Every exact cell of the matrix, at every thread count and screening,
/// is bit-identical to the reference; returns how many pairs the sweep
/// scanned in all, so callers can see that it scanned something.
fn check_collection<F: Reference>(
    models: &[F::Model],
    datasets: &[F::Dataset],
    what: &str,
) -> usize {
    let n = models.len();
    let names: Vec<String> = (0..n).map(|k| format!("{what}-{k}")).collect();
    let mut bounds: Vec<f64> = pairs(n)
        .iter()
        .map(|&(i, j)| F::upper_bound(&models[i], &models[j], AggFn::Sum).unwrap())
        .collect();
    bounds.sort_by(f64::total_cmp);
    let mid = bounds[bounds.len() / 2];
    let mut scanned = 0;
    for params in sweep(mid) {
        let expect = reference_cells::<F>(models, datasets, &params);
        let survivors = expect.iter().filter(|c| c.is_some()).count();
        scanned += survivors;
        for par in PARS {
            let p = MatrixParams { par, ..params };
            let m = deviation_matrix::<F>(models, datasets, names.clone(), &p).unwrap();
            assert_eq!(m.scanned(), survivors, "{what} {p:?}");
            for (&(i, j), want) in pairs(n).iter().zip(&expect) {
                assert_eq!(
                    m.exact(i, j).map(f64::to_bits),
                    want.map(f64::to_bits),
                    "{what} {p:?} pair ({i}, {j}): {:?} vs {want:?}",
                    m.exact(i, j)
                );
            }
        }
    }
    scanned
}

fn lits_collection() -> (Vec<LitsModel>, Vec<TransactionSet>) {
    let minsup = 0.04;
    let miner = Apriori::new(
        AprioriParams::with_minsup(minsup)
            .max_len(10)
            .min_count_floor(3),
    );
    let params = AssocGenParams {
        n_items: 60,
        avg_trans_len: 6.0,
        ..AssocGenParams::paper(20, 3.0)
    };
    let mut datasets: Vec<TransactionSet> = (0..4u64)
        .map(|k| AssocGen::new(params, 1 + k % 2).generate(300 + 40 * k as usize, 10 + k))
        .collect();
    // An identical twin of snapshot 0, so bounds tie.
    datasets.insert(1, datasets[0].clone());
    let mut models: Vec<LitsModel> = datasets.iter().map(|d| miner.mine(d)).collect();
    // An empty model at the shared minsup.
    datasets.push(AssocGen::new(params, 3).generate(200, 99));
    models.push(LitsModel::new(Vec::new(), Vec::new(), minsup, 200));
    assert!(
        models[..5].iter().all(|m| !m.is_empty()),
        "non-trivial models"
    );
    (models, datasets)
}

fn dt_collection() -> (Vec<DtModel>, Vec<LabeledTable>) {
    let tree = TreeParams::default().max_depth(5).min_leaf(8);
    let mut datasets: Vec<LabeledTable> = (0..4u64)
        .map(|k| {
            let f = if k % 2 == 0 {
                ClassifyFn::F2
            } else {
                ClassifyFn::F3
            };
            ClassifyGen::new(f)
                .noise(0.05)
                .generate(300 + 50 * k as usize, 20 + k)
        })
        .collect();
    datasets.insert(1, datasets[0].clone());
    let mut models: Vec<DtModel> = datasets
        .iter()
        .map(|d| DecisionTree::fit(d, tree).to_model())
        .collect();
    // A model without leaves: no row is located, its GCRs are empty.
    datasets.push(ClassifyGen::new(ClassifyFn::F2).generate(120, 77));
    models.push(DtModel::new(Vec::new(), 2, Vec::new(), 120));
    (models, datasets)
}

fn cluster_collection() -> (Vec<ClusterModel>, Vec<Table>) {
    let mut datasets: Vec<Table> = (0..4u64)
        .map(|k| {
            ClassifyGen::new(ClassifyFn::F2)
                .generate(200 + 30 * k as usize, 30 + k)
                .table
        })
        .collect();
    datasets.insert(1, datasets[0].clone());
    let mut models: Vec<ClusterModel> = datasets
        .iter()
        .enumerate()
        .map(|(k, t)| {
            KMeans::new(KMeansParams::new(2 + k % 3).seed(k as u64).max_iters(8))
                .fit(t, Parallelism::Sequential)
                .to_model(t)
        })
        .collect();
    datasets.push(ClassifyGen::new(ClassifyFn::F3).generate(90, 31).table);
    models.push(ClusterModel::new(Vec::new(), Vec::new(), 90));
    (models, datasets)
}

#[test]
fn lits_matrix_cells_match_the_per_pair_scan() {
    let (models, datasets) = lits_collection();
    assert!(check_collection::<LitsFamily>(&models, &datasets, "lits") > 0);
}

#[test]
fn dt_matrix_cells_match_the_per_pair_scan() {
    let (models, datasets) = dt_collection();
    assert!(check_collection::<DtFamily>(&models, &datasets, "dt") > 0);
}

#[test]
fn cluster_matrix_cells_match_the_per_pair_scan() {
    let (models, datasets) = cluster_collection();
    assert!(check_collection::<ClusterFamily>(&models, &datasets, "cluster") > 0);
}

/// One focussed pair deviated through the shared extension code equals
/// the reference over the same restricted GCR, at every thread count.
fn check_focussed<F: Reference>(
    gcr: F::Gcr,
    (m1, d1): (&F::Model, &F::Dataset),
    (m2, d2): (&F::Model, &F::Dataset),
    what: &str,
) where
    F::Gcr: Clone,
{
    for (f, g) in [
        (DiffFn::Absolute, AggFn::Sum),
        (DiffFn::Scaled, AggFn::Max),
        (DiffFn::ChiSquared { c: 0.5 }, AggFn::Sum),
    ] {
        let want = reference_deviation::<F>(&gcr, (m1, d1), (m2, d2), f, g);
        for par in PARS {
            let (s1, s2) = (F::source(d1), F::source(d2));
            let got = deviate_over_sources::<F>(gcr.clone(), m1, &s1, m2, &s2, f, g, par).value;
            assert_eq!(got.to_bits(), want.to_bits(), "{what} {f:?}/{g:?} {par:?}");
        }
    }
}

#[test]
fn focussed_pairs_match_the_per_pair_scan() {
    let (lm, ld) = lits_collection();
    let universe: Vec<u32> = (0..60).filter(|i| i % 3 != 0).collect();
    for (i, j) in [(0, 2), (2, 3), (3, 5)] {
        let gcr = LitsFamily::restrict(LitsFamily::gcr(&lm[i], &lm[j]), &universe);
        check_focussed::<LitsFamily>(gcr, (&lm[i], &ld[i]), (&lm[j], &ld[j]), "lits");
        let universe_dev = deviate_focussed::<LitsFamily>(
            &lm[i],
            &ld[i],
            &lm[j],
            &ld[j],
            &universe,
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Threads(2),
        );
        let gcr = LitsFamily::restrict(LitsFamily::gcr(&lm[i], &lm[j]), &universe);
        let want = reference_deviation::<LitsFamily>(
            &gcr,
            (&lm[i], &ld[i]),
            (&lm[j], &ld[j]),
            DiffFn::Absolute,
            AggFn::Sum,
        );
        assert_eq!(
            universe_dev.value.to_bits(),
            want.to_bits(),
            "lits focussed"
        );
    }

    let (dm, dd) = dt_collection();
    let schema = dd[0].table.schema().clone();
    let rho = BoxBuilder::new(&schema).range("age", 30.0, 60.0).build();
    let rho_class = BoxBuilder::new(&schema)
        .ge("salary", 60_000.0)
        .class(1)
        .build();
    for (i, j) in [(0, 2), (2, 3), (3, 4)] {
        let plain = DtFamily::gcr(&dm[i], &dm[j]);
        let hand_built = DtGcr::new(plain.cells.clone(), plain.n_classes);
        check_focussed::<DtFamily>(hand_built, (&dm[i], &dd[i]), (&dm[j], &dd[j]), "dt new");
        for rho in [&rho, &rho_class] {
            let focussed = DtFamily::restrict(plain.clone(), rho);
            check_focussed::<DtFamily>(focussed, (&dm[i], &dd[i]), (&dm[j], &dd[j]), "dt ρ");
        }
        let dev = deviate_focussed::<DtFamily>(
            &dm[i],
            &dd[i],
            &dm[j],
            &dd[j],
            &rho,
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Threads(4),
        );
        let want = reference_deviation::<DtFamily>(
            &DtFamily::restrict(plain, &rho),
            (&dm[i], &dd[i]),
            (&dm[j], &dd[j]),
            DiffFn::Absolute,
            AggFn::Sum,
        );
        assert_eq!(dev.value.to_bits(), want.to_bits(), "dt focussed");
    }

    let (cm, cd) = cluster_collection();
    let schema = cd[0].schema().clone();
    let rho = BoxBuilder::new(&schema).range("age", 25.0, 55.0).build();
    for (i, j) in [(0, 2), (2, 4)] {
        let gcr = ClusterFamily::restrict(ClusterFamily::gcr(&cm[i], &cm[j]), &rho);
        check_focussed::<ClusterFamily>(gcr, (&cm[i], &cd[i]), (&cm[j], &cd[j]), "cluster ρ");
    }
}
