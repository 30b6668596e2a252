//! Parallel ⇔ sequential equivalence: the determinism contract of the
//! `focus-exec` engine, enforced end-to-end.
//!
//! For random datasets and seeds, every parallelized pipeline — deviation
//! measure scans for all three model classes, Apriori mining, both arms
//! of the lits counting engine (the horizontal walk and batched
//! tid-bitset counting), Apriori's level-1 item pass and level-2 pair
//! pass (rows split over the workers, each counting into its own `u16`
//! pair triangle, summed exactly), shared counting-source
//! handles with their lazily cached index, decision-tree induction,
//! k-means Lloyd iterations, per-region `f`/`g` aggregation, and the
//! bootstrap qualification fan-out (`qualify`, `qualify_chi_squared`) —
//! must produce **bit-identical** results for any worker-thread count.
//! Floating-point results are compared via their IEEE-754 bit patterns,
//! not a tolerance: the engine's chunk decomposition, deterministic merge
//! order, and per-replicate seeding make exact equality achievable, so
//! exact equality is what we demand.

use focus::cluster::{KMeans, KMeansParams};
use focus::core::prelude::*;
use focus::exec::Parallelism;
use focus::mining::{Apriori, AprioriParams};
use focus::registry::{deviation_matrix, MatrixParams};
use focus::stats::null_distribution;
use focus::tree::{DecisionTree, TreeParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The thread counts every equivalence check sweeps (1 exercises the
/// inline path; 7 exceeds this container's core count on purpose).
const THREADS: [usize; 4] = [1, 2, 4, 7];

/// Asserts two float slices are IEEE-754 bit-identical.
fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}[{i}]: {x} vs {y} differ in bits"
        );
    }
}

/// A random transaction dataset, deterministic in its parameters.
fn random_transactions(n: usize, n_items: u32, density: f64, seed: u64) -> TransactionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = TransactionSet::new(n_items);
    for _ in 0..n {
        let t: Vec<u32> = (0..n_items)
            .filter(|_| rng.gen::<f64>() < density)
            .collect();
        data.push(t);
    }
    data
}

/// A random labelled one-attribute table with a class boundary.
fn random_labeled(n: usize, boundary: f64, noise: f64, seed: u64) -> LabeledTable {
    let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = LabeledTable::new(schema, 2);
    for _ in 0..n {
        let x: f64 = rng.gen::<f64>() * 100.0;
        let mut label = u32::from(x < boundary);
        if rng.gen::<f64>() < noise {
            label = 1 - label;
        }
        t.push_row(&[Value::Num(x)], label);
    }
    t
}

/// A random labelled table with a numeric and a categorical attribute —
/// exercises both threshold and subset splits in the tree tests.
fn random_labeled_2attr(n: usize, boundary: f64, noise: f64, seed: u64) -> LabeledTable {
    let schema = Arc::new(Schema::new(vec![
        Schema::numeric("x"),
        Schema::categorical("c", 5),
    ]));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = LabeledTable::new(schema, 2);
    for _ in 0..n {
        let x: f64 = rng.gen::<f64>() * 100.0;
        let c: u32 = rng.gen_range(0..5);
        let mut label = u32::from(x < boundary && c != 2);
        if rng.gen::<f64>() < noise {
            label = 1 - label;
        }
        t.push_row(&[Value::Num(x), Value::Cat(c)], label);
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// lits pipeline: mining and GCR-extension deviation are
    /// thread-count-invariant, model and measure component alike.
    #[test]
    fn lits_pipeline_bit_identical(seed1 in 0u64..1_000_000, seed2 in 0u64..1_000_000,
                                   n in 600usize..1600, density in 0.15f64..0.45) {
        let d1 = random_transactions(n, 10, density, seed1);
        let d2 = random_transactions(n + 13, 10, density * 0.8, seed2);
        let params = AprioriParams::with_minsup(0.1).max_len(6);

        let m1_seq = Apriori::new(params.parallelism(Parallelism::Sequential)).mine(&d1);
        let m2_seq = Apriori::new(params.parallelism(Parallelism::Sequential)).mine(&d2);
        let dev_seq = deviate::<LitsFamily>(
            &m1_seq, &d1, &m2_seq, &d2, DiffFn::Absolute, AggFn::Sum,
            Parallelism::Sequential,
        );

        for t in THREADS {
            let par = Parallelism::Threads(t);
            let m1 = Apriori::new(params.parallelism(par)).mine(&d1);
            let m2 = Apriori::new(params.parallelism(par)).mine(&d2);
            prop_assert_eq!(&m1, &m1_seq, "mined model 1, threads = {}", t);
            prop_assert_eq!(&m2, &m2_seq, "mined model 2, threads = {}", t);
            let dev = deviate::<LitsFamily>(&m1, &d1, &m2, &d2, DiffFn::Absolute, AggFn::Sum, par);
            prop_assert_eq!(dev.value.to_bits(), dev_seq.value.to_bits(),
                            "deviation value, threads = {}", t);
            assert_bits_eq(&dev.raw1, &dev_seq.raw1, "supports1");
            assert_bits_eq(&dev.raw2, &dev_seq.raw2, "supports2");
            assert_bits_eq(&dev.per_region, &dev_seq.per_region, "per_region");
            prop_assert_eq!(&dev.gcr, &dev_seq.gcr);
        }
    }

    /// dt pipeline: partition routing and the overlay deviation are
    /// thread-count-invariant.
    #[test]
    fn dt_pipeline_bit_identical(seed1 in 0u64..1_000_000, seed2 in 0u64..1_000_000,
                                 n in 600usize..1600, b1 in 20.0f64..80.0, b2 in 20.0f64..80.0) {
        let d1 = random_labeled(n, b1, 0.05, seed1);
        let d2 = random_labeled(n + 31, b2, 0.05, seed2);
        let params = TreeParams::default().max_depth(4).min_leaf(10);
        let m1 = DecisionTree::fit(&d1, params).to_model();
        let m2 = DecisionTree::fit(&d2, params).to_model();

        let counts_seq = count_partition(&d1, m1.index(), 2, Parallelism::Sequential);
        let dev_seq = deviate::<DtFamily>(
            &m1, &d1, &m2, &d2, DiffFn::Absolute, AggFn::Sum, Parallelism::Sequential,
        );

        for t in THREADS {
            let par = Parallelism::Threads(t);
            prop_assert_eq!(
                &count_partition(&d1, m1.index(), 2, par), &counts_seq,
                "partition counts, threads = {}", t
            );
            let dev = deviate::<DtFamily>(&m1, &d1, &m2, &d2, DiffFn::Absolute, AggFn::Sum, par);
            prop_assert_eq!(dev.value.to_bits(), dev_seq.value.to_bits(),
                            "deviation value, threads = {}", t);
            assert_bits_eq(&dev.raw1, &dev_seq.raw1, "measures1");
            assert_bits_eq(&dev.raw2, &dev_seq.raw2, "measures2");
            assert_bits_eq(&dev.per_region, &dev_seq.per_region, "per_region");
        }
    }

    /// cluster pipeline: overlapping-box measure scans and the GCR
    /// deviation are thread-count-invariant.
    #[test]
    fn cluster_pipeline_bit_identical(seed1 in 0u64..1_000_000, seed2 in 0u64..1_000_000,
                                      n in 600usize..1600,
                                      lo1 in 0.0f64..40.0, w1 in 10.0f64..50.0,
                                      lo2 in 0.0f64..40.0, w2 in 10.0f64..50.0) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let table_of = |seed: u64, rows: usize| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Table::new(Arc::clone(&schema));
            for _ in 0..rows {
                t.push_row(&[Value::Num(rng.gen::<f64>() * 100.0)]);
            }
            t
        };
        let d1 = table_of(seed1, n);
        let d2 = table_of(seed2, n + 17);
        let c1 = ClusterModel::new(
            vec![BoxBuilder::new(&schema).range("x", lo1, lo1 + w1).build()],
            vec![1.0],
            n as u64,
        );
        let c2 = ClusterModel::new(
            vec![BoxBuilder::new(&schema).range("x", lo2, lo2 + w2).build()],
            vec![1.0],
            (n + 17) as u64,
        );

        let dev_seq = deviate::<ClusterFamily>(
            &c1, &d1, &c2, &d2, DiffFn::Absolute, AggFn::Sum, Parallelism::Sequential,
        );
        let counts_seq = count_boxes(&d1, c1.clusters(), Parallelism::Sequential);

        for t in THREADS {
            let par = Parallelism::Threads(t);
            prop_assert_eq!(
                &count_boxes(&d1, c1.clusters(), par), &counts_seq,
                "box counts, threads = {}", t
            );
            let dev = deviate::<ClusterFamily>(&c1, &d1, &c2, &d2, DiffFn::Absolute, AggFn::Sum, par);
            prop_assert_eq!(dev.value.to_bits(), dev_seq.value.to_bits(),
                            "deviation value, threads = {}", t);
            assert_bits_eq(&dev.raw1, &dev_seq.raw1, "measures1");
            assert_bits_eq(&dev.raw2, &dev_seq.raw2, "measures2");
            assert_bits_eq(&dev.per_region, &dev_seq.per_region, "per_region");
        }
    }

    /// Bootstrap qualification: the per-replicate seeded fan-out makes the
    /// full null distribution (and hence the significance) bit-identical
    /// for any thread count — with the complete mine-and-deviate pipeline
    /// inside every replicate.
    #[test]
    fn bootstrap_qualification_bit_identical(seed in 0u64..1_000_000,
                                             data_seed in 0u64..1_000_000,
                                             n in 30usize..90) {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let d1 = random_transactions(n, 8, 0.3, data_seed);
        let d2 = random_transactions(n + 5, 8, 0.35, data_seed ^ 0xABCD);
        let miner = Apriori::new(
            AprioriParams::with_minsup(0.2).max_len(4).parallelism(Parallelism::Sequential),
        );
        let pipeline = |a: &TransactionSet, b: &TransactionSet| {
            let ma = miner.mine(a);
            let mb = miner.mine(b);
            deviate::<LitsFamily>(&ma, a, &mb, b, f, g, par).value
        };
        let observed = pipeline(&d1, &d2);

        let q_seq = qualify(
            &d1, &d2, observed, 12, seed, Parallelism::Sequential, pipeline,
        );
        for t in THREADS {
            let q = qualify(
                &d1, &d2, observed, 12, seed, Parallelism::Threads(t), pipeline,
            );
            assert_bits_eq(&q.null_distribution, &q_seq.null_distribution, "null distribution");
            prop_assert_eq!(q.significance_percent.to_bits(),
                            q_seq.significance_percent.to_bits(),
                            "significance, threads = {}", t);
        }
    }

    /// The same bootstrap over labelled tables, with a tree fitted per
    /// pseudo-dataset (the Figure 14 pipeline), and the one-sample χ²
    /// bootstrap (`qualify_chi_squared`) over the same tables.
    #[test]
    fn table_qualification_bit_identical(seed in 0u64..1_000_000,
                                         data_seed in 0u64..1_000_000,
                                         n in 150usize..300) {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let d1 = random_labeled_2attr(n, 40.0, 0.05, data_seed);
        let d2 = random_labeled_2attr(n + 7, 60.0, 0.05, data_seed ^ 0xABCD);
        let params = TreeParams::default().max_depth(3).min_leaf(10);
        let pipeline = |a: &LabeledTable, b: &LabeledTable| {
            let ma = DecisionTree::fit(a, params).to_model();
            let mb = DecisionTree::fit(b, params).to_model();
            deviate::<DtFamily>(&ma, a, &mb, b, f, g, par).value
        };
        let observed = pipeline(&d1, &d2);
        // The χ² bootstrap of Section 5.2.2: pseudo-D2s drawn from d1,
        // scored against one stump fitted on d1.
        let stump = DecisionTree::fit(&d1, TreeParams::default().max_depth(1)).to_model();
        let chi2 = |d: &LabeledTable| chi_squared_statistic(&stump, d, 0.5, par);
        let chi2_observed = chi2(&d2);

        let q_seq = qualify(
            &d1, &d2, observed, 8, seed, Parallelism::Sequential, pipeline,
        );
        let c_seq = qualify_chi_squared(
            &d1, d2.len(), chi2_observed, 8, seed, Parallelism::Sequential, chi2,
        );
        for t in THREADS {
            let q = qualify(
                &d1, &d2, observed, 8, seed, Parallelism::Threads(t), pipeline,
            );
            assert_bits_eq(&q.null_distribution, &q_seq.null_distribution, "null distribution");
            prop_assert_eq!(q.significance_percent.to_bits(),
                            q_seq.significance_percent.to_bits(),
                            "significance, threads = {}", t);
            let c = qualify_chi_squared(
                &d1, d2.len(), chi2_observed, 8, seed, Parallelism::Threads(t), chi2,
            );
            assert_bits_eq(&c.null_distribution, &c_seq.null_distribution, "χ² null distribution");
            prop_assert_eq!(c.significance_percent.to_bits(),
                            c_seq.significance_percent.to_bits(),
                            "χ² significance, threads = {}", t);
        }
    }

    /// The generic focus-stats bootstrap engine obeys the same contract.
    #[test]
    fn stats_bootstrap_bit_identical(seed in 0u64..1_000_000, n in 40usize..120) {
        let pool: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.7).sin()).collect();
        let mean_of_resample = |k: usize, rng: &mut StdRng| {
            (0..k).map(|_| pool[rng.gen_range(0..n)]).sum::<f64>() / k as f64
        };
        let replicate = |rng: &mut StdRng| {
            let ma = mean_of_resample(n / 2, rng);
            let mb = mean_of_resample(n / 3, rng);
            (ma - mb).abs()
        };
        let seq = null_distribution(25, seed, Parallelism::Sequential, replicate);
        for t in THREADS {
            let par = null_distribution(25, seed, Parallelism::Threads(t), replicate);
            assert_bits_eq(&par, &seq, "bootstrap null");
        }
    }

    /// Decision-tree induction: parallel split search + sibling-subtree
    /// recursion produce the exact tree (nodes, layout, thresholds) the
    /// sequential build produces, and hence the exact exported model.
    #[test]
    fn dt_induction_bit_identical(seed in 0u64..1_000_000, n in 600usize..1600,
                                  b in 20.0f64..80.0, noise in 0.0f64..0.2) {
        let data = random_labeled_2attr(n, b, noise, seed);
        let params = TreeParams::default().max_depth(6).min_leaf(5);
        let seq = DecisionTree::fit_par(&data, params, Parallelism::Sequential);
        let model_seq = seq.to_model();
        for t in THREADS {
            let tree = DecisionTree::fit_par(&data, params, Parallelism::Threads(t));
            prop_assert_eq!(&tree, &seq, "fitted tree, threads = {}", t);
            let model = tree.to_model();
            assert_bits_eq(model.measures(), model_seq.measures(), "dt model measures");
            prop_assert_eq!(model.leaves(), model_seq.leaves(), "dt model leaves");
        }
    }

    /// k-means: Lloyd assignment chunks and the fixed-order centroid folds
    /// make the full fit — centroids, assignment, inertia, iteration count
    /// — thread-count-invariant.
    #[test]
    fn kmeans_fit_bit_identical(seed in 0u64..1_000_000, n in 600usize..1600,
                                k in 1usize..6, gap in 5.0f64..50.0) {
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::numeric("y"),
        ]));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut data = Table::new(Arc::clone(&schema));
        for i in 0..n {
            let shift = (i % 3) as f64 * gap;
            data.push_row(&[
                Value::Num(shift + rng.gen::<f64>()),
                Value::Num(shift + rng.gen::<f64>()),
            ]);
        }
        let km = KMeans::new(KMeansParams::new(k).seed(seed ^ 0x5EED).max_iters(20));
        let seq = km.fit(&data, Parallelism::Sequential);
        for t in THREADS {
            let par = km.fit(&data, Parallelism::Threads(t));
            prop_assert_eq!(&par.assignment, &seq.assignment, "assignment, threads = {}", t);
            prop_assert_eq!(par.iterations, seq.iterations, "iterations, threads = {}", t);
            prop_assert_eq!(par.inertia.to_bits(), seq.inertia.to_bits(),
                            "inertia, threads = {}", t);
            for (c, (a, b)) in par.centroids.iter().zip(&seq.centroids).enumerate() {
                assert_bits_eq(a, b, &format!("centroid {c}"));
            }
        }
    }

    /// Per-region f/g aggregation over a fixed structure: the difference
    /// loop fans out but values come back in region order, so every
    /// (f, g) combination aggregates to the same bits.
    #[test]
    fn region_aggregation_bit_identical(seed in 0u64..1_000_000, len in 1usize..5000,
                                        n1 in 0u64..10_000, n2 in 0u64..10_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let counts1: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1000)).collect();
        let counts2: Vec<u64> = (0..len).map(|_| rng.gen_range(0..1000)).collect();
        for f in [DiffFn::Absolute, DiffFn::Scaled, DiffFn::ChiSquared { c: 0.5 }] {
            for g in [AggFn::Sum, AggFn::Max] {
                let seq = deviation_fixed(&counts1, &counts2, n1, n2, f, g,
                                              Parallelism::Sequential);
                for t in THREADS {
                    let par = deviation_fixed(&counts1, &counts2, n1, n2, f, g,
                                                  Parallelism::Threads(t));
                    prop_assert_eq!(par.to_bits(), seq.to_bits(),
                                    "{:?}/{:?}, threads = {}", f, g, t);
                }
            }
        }
    }

    /// Vertical tid-bitset counting: the batched prefix-run counter fans
    /// runs out over worker threads, and every count is `u64`-identical to
    /// the horizontal sequential scan for every thread count (the counts
    /// are integers, so exact equality is the bit-identity contract here).
    /// A default-budget source must land on the same counts too, whichever
    /// arm its cost model picks on this dataset.
    #[test]
    fn vertical_counting_bit_identical(seed in 0u64..1_000_000,
                                       n in 50usize..400,
                                       n_items in 4u32..14,
                                       density in 0.1f64..0.5) {
        let data = random_transactions(n, n_items, density, seed);
        let sets: Vec<Itemset> = (0..n_items.saturating_sub(1))
            .map(|b| Itemset::from_slice(&[b, b + 1]))
            .chain((0..n_items).map(|b| Itemset::from_slice(&[b])))
            .chain(std::iter::once(Itemset::from_slice(&[])))
            .chain(std::iter::once(Itemset::from_slice(&[n_items + 3])))
            .collect();
        let horizontal = count_itemsets(&data, &sets, Parallelism::Sequential);

        let index = VerticalIndex::build(&data);
        let seq = count_itemsets_grouped(&index, &sets, Parallelism::Sequential);
        prop_assert_eq!(&seq, &horizontal, "vertical vs horizontal, sequential");
        let auto = CountSource::borrowed(&data);
        for t in THREADS {
            prop_assert_eq!(
                &count_itemsets_grouped(&index, &sets, Parallelism::Threads(t)),
                &horizontal,
                "vertical counts, threads = {}", t
            );
            prop_assert_eq!(&auto.counts(&sets, Parallelism::Threads(t)), &horizontal,
                            "cost-model dispatched counts, threads = {}", t);
        }
    }

    /// Grouped counting on dense data: the prefix-run decomposition and
    /// the run-level fan-out are pure functions of the workload, never of
    /// the schedule, so every count is `u64`-identical to the sequential
    /// horizontal scan for every thread count. The density range reaches
    /// 0.9 so tid rows are mostly full words, and the workload includes
    /// triples sharing (k−1)-prefixes so runs really have several members.
    #[test]
    fn diffset_and_grouped_counting_bit_identical(seed in 0u64..1_000_000,
                                                  n in 50usize..400,
                                                  n_items in 4u32..14,
                                                  density in 0.2f64..0.9) {
        let data = random_transactions(n, n_items, density, seed);
        let sets: Vec<Itemset> = (0..n_items.saturating_sub(2))
            .map(|b| Itemset::from_slice(&[b, b + 1, b + 2]))
            .chain((0..n_items.saturating_sub(2)).map(|b| Itemset::from_slice(&[b, b + 1, n_items - 1])))
            .chain((0..n_items.saturating_sub(1)).map(|b| Itemset::from_slice(&[b, b + 1])))
            .chain((0..n_items).map(|b| Itemset::from_slice(&[b])))
            .chain(std::iter::once(Itemset::from_slice(&[])))
            .chain(std::iter::once(Itemset::from_slice(&[n_items + 3])))
            .collect();
        let horizontal = count_itemsets(&data, &sets, Parallelism::Sequential);

        let index = VerticalIndex::build(&data);
        let grouped_seq = count_itemsets_grouped(&index, &sets, Parallelism::Sequential);
        prop_assert_eq!(&grouped_seq, &horizontal, "grouped vs horizontal, sequential");
        for t in THREADS {
            prop_assert_eq!(
                &count_itemsets_grouped(&index, &sets, Parallelism::Threads(t)),
                &horizontal,
                "grouped counts, threads = {}", t
            );
        }
    }

    /// A shared [`CountSource`] handle: its cost-model dispatch and its
    /// lazily cached index must be invisible in the results. Every thread
    /// count, through the auto handle, through a prebuilt-index handle,
    /// and through worker closures sharing one handle (`Fn + Sync`, the
    /// matrix engine's access pattern), returns counts `u64`-identical to
    /// an uncached sequential horizontal scan.
    #[test]
    fn shared_count_source_bit_identical(seed in 0u64..1_000_000,
                                         n in 50usize..400,
                                         n_items in 4u32..14,
                                         density in 0.1f64..0.5) {
        let data = random_transactions(n, n_items, density, seed);
        let sets: Vec<Itemset> = (0..n_items.saturating_sub(1))
            .map(|b| Itemset::from_slice(&[b, b + 1]))
            .chain((0..n_items).map(|b| Itemset::from_slice(&[b])))
            .chain(std::iter::once(Itemset::from_slice(&[])))
            .collect();
        let uncached = count_itemsets(&data, &sets, Parallelism::Sequential);

        // The auto handle: repeated counts across the sweep share at most
        // one cached index build.
        let auto = CountSource::borrowed(&data);
        prop_assert_eq!(&auto.counts(&sets, Parallelism::Sequential), &uncached,
                        "auto handle, sequential");
        for t in THREADS {
            prop_assert_eq!(&auto.counts(&sets, Parallelism::Threads(t)), &uncached,
                            "auto handle, threads = {}", t);
        }

        // The cached-index path, guaranteed: an index-backed handle has no
        // horizontal view at all, so every count exercises the bitsets.
        let indexed = CountSource::from_index(VerticalIndex::build(&data));
        prop_assert!(indexed.index_built());
        for t in THREADS {
            prop_assert_eq!(&indexed.counts(&sets, Parallelism::Threads(t)), &uncached,
                            "indexed handle, threads = {}", t);
            // One handle shared by the worker closures themselves — each
            // counts a single itemset through the same cached index.
            let shared = &indexed;
            let per_set = focus::exec::map_indices(Parallelism::Threads(t), sets.len(), |i| {
                shared.counts(&sets[i..i + 1], Parallelism::Sequential)[0]
            });
            prop_assert_eq!(&per_set, &uncached,
                            "handle shared across worker closures, threads = {}", t);
        }
    }

    /// The horizontal walk over transaction chunks is thread-count-
    /// invariant and `u64`-identical to the sequential bitmap reference on
    /// mixed-length workloads: itemsets that prefix one another,
    /// duplicates, the empty itemset and an out-of-universe item. The
    /// datasets exceed 7 × the 256-row scan grain, so the 7-thread sweep
    /// really splits into seven chunks.
    #[test]
    fn horizontal_walk_bit_identical(seed in 0u64..1_000_000,
                                     n in 1800usize..2600,
                                     n_items in 6u32..14,
                                     density in 0.1f64..0.5) {
        let data = random_transactions(n, n_items, density, seed);
        let sets: Vec<Itemset> = (0..n_items.saturating_sub(2))
            .map(|b| Itemset::from_slice(&[b, b + 1, b + 2]))
            .chain((0..n_items.saturating_sub(1)).map(|b| Itemset::from_slice(&[b, b + 1])))
            .chain((0..n_items).map(|b| Itemset::from_slice(&[b])))
            .chain([
                Itemset::from_slice(&[0, 1]),
                Itemset::from_slice(&[1, 3, 4, 5]),
                Itemset::from_slice(&[]),
                Itemset::from_slice(&[2, n_items + 1]),
            ])
            .collect();
        let reference = count_itemsets(&data, &sets, Parallelism::Sequential);
        let walk = CountSource::borrowed(&data).with_index_budget(0);
        for t in THREADS {
            prop_assert_eq!(&walk.counts(&sets, Parallelism::Threads(t)), &reference,
                            "horizontal walk, threads = {}", t);
        }
        prop_assert!(!walk.index_built(), "budget 0 must never build an index");
    }
}

/// Directed (non-property) check on a dataset large enough that even the
/// 7-thread sweep splits into seven real chunks (the property sizes above
/// land in the 2–6 chunk range; 6000 rows / 256-row grain > 7).
#[test]
fn large_scan_splits_chunks_and_stays_identical() {
    let data = random_transactions(6000, 15, 0.3, 99);
    let sets: Vec<Itemset> = (0..14u32)
        .map(|b| Itemset::from_slice(&[b, b + 1]))
        .collect();
    let seq = count_itemsets(&data, &sets, Parallelism::Sequential);
    for t in THREADS {
        assert_eq!(
            count_itemsets(&data, &sets, Parallelism::Threads(t)),
            seq,
            "threads = {t}"
        );
    }
    // Both arms of the counting engine on the same data: the walk splits
    // by rows (6000 rows / 256-row grain > 7 chunks), the grouped counter
    // by prefix runs (14 runs > 7 chunks).
    let walk = CountSource::borrowed(&data).with_index_budget(0);
    let index = VerticalIndex::build(&data);
    for t in THREADS {
        assert_eq!(
            walk.counts(&sets, Parallelism::Threads(t)),
            seq,
            "horizontal walk, threads = {t}"
        );
        assert_eq!(
            count_itemsets_grouped(&index, &sets, Parallelism::Threads(t)),
            seq,
            "grouped runs, threads = {t}"
        );
    }

    // Labeled side too: 6000 rows > SCAN_GRAIN guarantees ≥ 2 chunks.
    let labeled = random_labeled(6000, 50.0, 0.1, 7);
    let schema = labeled.table.schema();
    let leaves = vec![
        BoxBuilder::new(schema).lt("x", 50.0).build(),
        BoxBuilder::new(schema).ge("x", 50.0).build(),
    ];
    let leaves = BoxIndex::new(&leaves);
    let seq = count_partition(&labeled, &leaves, 2, Parallelism::Sequential);
    for t in THREADS {
        assert_eq!(
            count_partition(&labeled, &leaves, 2, Parallelism::Threads(t)),
            seq,
            "threads = {t}"
        );
    }
}

/// The pair pass splits the rows over the workers and sums their
/// triangles. 1,500 frequent items make C(1500, 2) = 1,124,250 pair
/// counters, more than one 2 MiB triangle of `u16` holds, so the rows are
/// passed once per band. 120,000 rows are enough for seven chunks of the
/// first band at seven threads. The rows include ones with no frequent
/// item, ones with exactly one, and ones whose pairs straddle the band
/// boundary; the frequent items skip every seventh item, so ranks and item
/// ids differ.
#[test]
fn frequent_pairs_bit_identical_across_thread_counts() {
    let n_items = 1750u32;
    let items: Vec<u32> = (0..n_items).filter(|i| i % 7 != 0).collect();
    assert_eq!(items.len(), 1500);
    let mut rng = StdRng::seed_from_u64(2000);
    let mut data = TransactionSet::new(n_items);
    for row in 0..120_000 {
        let t: Vec<u32> = match row % 5 {
            0 => Vec::new(),
            // Multiples of 7 are never frequent.
            1 => vec![0, 7, 14, 1743],
            2 => vec![7, items[rng.gen_range(0..items.len())], 1743],
            3 => vec![items[0], items[1100], items[1400], items[1499]],
            _ => (0..6)
                .map(|_| items[rng.gen_range(0..items.len())])
                .collect(),
        };
        data.push(t);
    }
    let source = CountSource::borrowed(&data);
    for min_count in [1, 30] {
        let seq = source
            .frequent_pairs(&items, min_count, Parallelism::Sequential)
            .expect("a row-backed source runs the pass");
        assert!(seq.iter().any(|&(a, _, _)| a == items[1400]));
        for t in THREADS {
            assert_eq!(
                source.frequent_pairs(&items, min_count, Parallelism::Threads(t)),
                Some(seq.clone()),
                "min_count {min_count}, threads = {t}"
            );
        }
    }
    assert!(!source.index_built(), "the pair pass builds no index");
}

/// A chunk counts in `u16` and folds into `u32` before a counter could
/// wrap. With 140,000 rows the one chunk of a sequential pass folds twice
/// and each of two chunks folds once; the pair {1, 2} sits in every row,
/// so its count is exact only past the `u16` range.
#[test]
fn frequent_pairs_count_past_the_u16_range() {
    let n = 140_000usize;
    let mut data = TransactionSet::new(4);
    for row in 0..n {
        let mut t = vec![1, 2];
        if row % 3 == 0 {
            t.push(0);
        }
        if row % 5 == 0 {
            t.push(3);
        }
        data.push(t);
    }
    let (thirds, fifths, fifteenths) = (46_667, 28_000, 9_334);
    let want = vec![
        (0, 1, thirds),
        (0, 2, thirds),
        (0, 3, fifteenths),
        (1, 2, n as u64),
        (1, 3, fifths),
        (2, 3, fifths),
    ];
    let source = CountSource::borrowed(&data);
    for par in [Parallelism::Sequential]
        .into_iter()
        .chain(THREADS.map(Parallelism::Threads))
    {
        assert_eq!(
            source.frequent_pairs(&[0, 1, 2, 3], 1, par),
            Some(want.clone()),
            "{par:?}"
        );
        assert_eq!(
            source.frequent_pairs(&[0, 1, 2, 3], 65_536, par),
            Some(vec![(1, 2, n as u64)]),
            "{par:?}"
        );
    }
}

/// δ*-screening for the dt and cluster families must be a pure
/// optimisation: at a pruning threshold, every *surviving* cell is
/// bit-identical to the full scan's, the prune decisions are
/// thread-count-invariant, and a strictly positive fraction of pairs is
/// actually pruned. (The lits analogue is covered by the property test
/// below; here the collections are built with shared structure so the
/// new bounds are informative.)
#[test]
fn dt_and_cluster_screening_matches_full_scan_at_every_thread_count() {
    // dt: two snapshots share the split skeleton (tight, near-exact
    // bound); the third uses a different boundary, so its leaf boxes
    // match nothing and its bound saturates at the total mass 2.0.
    let dt_data: Vec<LabeledTable> = [(400, 3u64), (520, 4), (450, 5)]
        .iter()
        .map(|&(n, seed)| random_labeled(n, 40.0, 0.05, seed))
        .collect();
    let split = |b: f64, d: &LabeledTable| {
        let schema = d.table.schema();
        induce_dt_measures(
            vec![
                BoxBuilder::new(schema).lt("x", b).build(),
                BoxBuilder::new(schema).ge("x", b).build(),
            ],
            d,
        )
    };
    let dt_models = vec![
        split(40.0, &dt_data[0]),
        split(40.0, &dt_data[1]),
        split(75.0, &dt_data[2]),
    ];
    let names: Vec<String> = (0..3).map(|i| format!("s{i}")).collect();
    let params = |threshold: f64, par| MatrixParams {
        threshold,
        par,
        ..MatrixParams::default()
    };
    let full = deviation_matrix::<DtFamily>(
        &dt_models,
        &dt_data,
        names.clone(),
        &params(0.0, Parallelism::Sequential),
    )
    .unwrap();
    // 1.0 splits the bound range: shared-skeleton pair ≪ 1 < 2.0.
    let screened_seq = deviation_matrix::<DtFamily>(
        &dt_models,
        &dt_data,
        names.clone(),
        &params(1.0, Parallelism::Sequential),
    )
    .unwrap();
    assert_eq!(screened_seq.pruned(), 1, "the shared-skeleton pair prunes");
    assert_eq!(screened_seq.scanned(), 2);
    for t in THREADS {
        let screened = deviation_matrix::<DtFamily>(
            &dt_models,
            &dt_data,
            names.clone(),
            &params(1.0, Parallelism::Threads(t)),
        )
        .unwrap();
        assert_eq!(screened.pruned(), screened_seq.pruned(), "threads = {t}");
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    screened.exact(i, j).map(f64::to_bits),
                    screened_seq.exact(i, j).map(f64::to_bits),
                    "dt exact({i}, {j}), threads = {t}"
                );
                if let Some(e) = screened.exact(i, j) {
                    assert_eq!(
                        Some(e.to_bits()),
                        full.exact(i, j).map(f64::to_bits),
                        "dt surviving cell ({i}, {j}) vs full scan, threads = {t}"
                    );
                }
            }
        }
    }

    // cluster: snapshots 0 and 1 share their cluster boxes (only the
    // measures differ → small bound); snapshot 2 lives in a disjoint
    // span, so its pairs keep remainder terms and a large bound.
    let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
    let cl_data: Vec<Table> = [(300usize, 6u64, 0.0), (340, 7, 0.0), (320, 8, 100.0)]
        .iter()
        .map(|&(n, seed, shift)| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Table::new(Arc::clone(&schema));
            for _ in 0..n {
                t.push_row(&[Value::Num(shift + rng.gen::<f64>() * 80.0)]);
            }
            t
        })
        .collect();
    let boxed = |lo: f64, hi: f64| BoxBuilder::new(&schema).range("x", lo, hi).build();
    let cl_model = |boxes: Vec<BoxRegion>, d: &Table| {
        let measures: Vec<f64> = boxes
            .iter()
            .map(|b| d.rows().filter(|r| b.contains(r)).count() as f64 / d.len() as f64)
            .collect();
        ClusterModel::new(boxes, measures, d.len() as u64)
    };
    let cl_models = vec![
        cl_model(vec![boxed(0.0, 30.0), boxed(50.0, 80.0)], &cl_data[0]),
        cl_model(vec![boxed(0.0, 30.0), boxed(50.0, 80.0)], &cl_data[1]),
        cl_model(vec![boxed(100.0, 130.0), boxed(150.0, 180.0)], &cl_data[2]),
    ];
    let full = deviation_matrix::<ClusterFamily>(
        &cl_models,
        &cl_data,
        names.clone(),
        &params(0.0, Parallelism::Sequential),
    )
    .unwrap();
    let threshold = full.bound(0, 1);
    let screened_seq = deviation_matrix::<ClusterFamily>(
        &cl_models,
        &cl_data,
        names.clone(),
        &params(threshold, Parallelism::Sequential),
    )
    .unwrap();
    assert!(screened_seq.pruned() >= 1, "the shared-box pair prunes");
    assert!(screened_seq.scanned() >= 1, "the disjoint-span pairs scan");
    for t in THREADS {
        let screened = deviation_matrix::<ClusterFamily>(
            &cl_models,
            &cl_data,
            names.clone(),
            &params(threshold, Parallelism::Threads(t)),
        )
        .unwrap();
        assert_eq!(screened.pruned(), screened_seq.pruned(), "threads = {t}");
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    screened.exact(i, j).map(f64::to_bits),
                    screened_seq.exact(i, j).map(f64::to_bits),
                    "cluster exact({i}, {j}), threads = {t}"
                );
                if let Some(e) = screened.exact(i, j) {
                    assert_eq!(
                        Some(e.to_bits()),
                        full.exact(i, j).map(f64::to_bits),
                        "cluster surviving cell ({i}, {j}) vs full scan, threads = {t}"
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The δ*-screened deviation-matrix engine: both fan-out phases (pair
    /// bounds, surviving exact scans) produce bit-identical matrices and
    /// identical prune decisions for every worker-thread count.
    #[test]
    fn deviation_matrix_bit_identical(seed in 0u64..1_000_000,
                                      n_snaps in 3usize..6,
                                      threshold in 0.0f64..3.0) {
        let miner = Apriori::new(
            AprioriParams::with_minsup(0.25).max_len(4).parallelism(Parallelism::Sequential),
        );
        let datasets: Vec<TransactionSet> = (0..n_snaps)
            .map(|i| random_transactions(150, 8, 0.2 + 0.1 * (i % 3) as f64, seed + i as u64))
            .collect();
        let models: Vec<_> = datasets.iter().map(|d| miner.mine(d)).collect();
        let names: Vec<String> = (0..n_snaps).map(|i| format!("s{i}")).collect();

        let params = |par| MatrixParams {
            threshold,
            par,
            ..MatrixParams::default()
        };
        let seq = deviation_matrix::<LitsFamily>(
            &models, &datasets, names.clone(), &params(Parallelism::Sequential),
        ).unwrap();
        for t in THREADS {
            let par = deviation_matrix::<LitsFamily>(
                &models, &datasets, names.clone(), &params(Parallelism::Threads(t)),
            ).unwrap();
            prop_assert_eq!(par.scanned(), seq.scanned(), "scanned, threads = {}", t);
            prop_assert_eq!(par.pruned(), seq.pruned(), "pruned, threads = {}", t);
            for i in 0..n_snaps {
                for j in 0..n_snaps {
                    prop_assert_eq!(par.bound(i, j).to_bits(), seq.bound(i, j).to_bits(),
                                    "bound({}, {}), threads = {}", i, j, t);
                    prop_assert_eq!(par.exact(i, j).map(f64::to_bits),
                                    seq.exact(i, j).map(f64::to_bits),
                                    "exact({}, {}), threads = {}", i, j, t);
                    prop_assert_eq!(par.value(i, j).to_bits(), seq.value(i, j).to_bits(),
                                    "value({}, {}), threads = {}", i, j, t);
                }
            }
        }
    }

    /// The same engine instantiated for the dt family at the default
    /// threshold 0 — every leaf-mass bound is positive, so every pair is
    /// scanned — and the full matrix of exact overlay deviations must be
    /// bit-identical for every worker-thread count.
    #[test]
    fn dt_deviation_matrix_bit_identical(seed in 0u64..1_000_000,
                                         n_snaps in 3usize..5) {
        let tree_params = TreeParams::default().max_depth(4).min_leaf(10);
        let datasets: Vec<LabeledTable> = (0..n_snaps)
            .map(|i| random_labeled(300 + 11 * i, 25.0 + 15.0 * i as f64, 0.05,
                                    seed + i as u64))
            .collect();
        let models: Vec<_> = datasets
            .iter()
            .map(|d| DecisionTree::fit_par(d, tree_params, Parallelism::Sequential).to_model())
            .collect();
        let names: Vec<String> = (0..n_snaps).map(|i| format!("t{i}")).collect();

        let params = |par| MatrixParams { par, ..MatrixParams::default() };
        let seq = deviation_matrix::<DtFamily>(
            &models, &datasets, names.clone(), &params(Parallelism::Sequential),
        ).unwrap();
        prop_assert_eq!(seq.pruned(), 0, "threshold 0 never prunes");
        for t in THREADS {
            let par = deviation_matrix::<DtFamily>(
                &models, &datasets, names.clone(), &params(Parallelism::Threads(t)),
            ).unwrap();
            prop_assert_eq!(par.scanned(), seq.scanned(), "scanned, threads = {}", t);
            for i in 0..n_snaps {
                for j in 0..n_snaps {
                    prop_assert_eq!(par.exact(i, j).map(f64::to_bits),
                                    seq.exact(i, j).map(f64::to_bits),
                                    "exact({}, {}), threads = {}", i, j, t);
                }
            }
        }
    }

    /// And for the cluster family: k-means box models over plain tables,
    /// same threshold-0/full-scan regime, same bit-identity contract.
    #[test]
    fn cluster_deviation_matrix_bit_identical(seed in 0u64..1_000_000,
                                              n_snaps in 3usize..5) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x"),
                                               Schema::numeric("y")]));
        let mut datasets: Vec<Table> = Vec::new();
        let mut models = Vec::new();
        for i in 0..n_snaps {
            let mut rng = StdRng::seed_from_u64(seed + i as u64);
            let mut t = Table::new(Arc::clone(&schema));
            let gap = 10.0 + 10.0 * i as f64;
            for r in 0..300 {
                let shift = (r % 2) as f64 * gap;
                t.push_row(&[Value::Num(shift + rng.gen::<f64>()),
                             Value::Num(shift + rng.gen::<f64>())]);
            }
            let km = KMeans::new(KMeansParams::new(2).seed(seed ^ i as u64).max_iters(15));
            models.push(km.fit(&t, Parallelism::Sequential).to_model(&t));
            datasets.push(t);
        }
        let names: Vec<String> = (0..n_snaps).map(|i| format!("c{i}")).collect();

        let params = |par| MatrixParams { par, ..MatrixParams::default() };
        let seq = deviation_matrix::<ClusterFamily>(
            &models, &datasets, names.clone(), &params(Parallelism::Sequential),
        ).unwrap();
        prop_assert_eq!(seq.pruned(), 0, "threshold 0 never prunes");
        for t in THREADS {
            let par = deviation_matrix::<ClusterFamily>(
                &models, &datasets, names.clone(), &params(Parallelism::Threads(t)),
            ).unwrap();
            prop_assert_eq!(par.scanned(), seq.scanned(), "scanned, threads = {}", t);
            for i in 0..n_snaps {
                for j in 0..n_snaps {
                    prop_assert_eq!(par.exact(i, j).map(f64::to_bits),
                                    seq.exact(i, j).map(f64::to_bits),
                                    "exact({}, {}), threads = {}", i, j, t);
                }
            }
        }
    }
}

/// The dt matrix over trees of more than 128 leaves, so every leaf index
/// bitset spans three or more 64-bit words (the property sizes above stay
/// within one), on enough rows that each thread count splits the scans
/// into real chunks.
#[test]
fn dt_deviation_matrix_multi_word_trees_bit_identical() {
    use focus::data::classify::{ClassifyFn, ClassifyGen};
    let tree_params = TreeParams::default().max_depth(12).min_leaf(5);
    let datasets: Vec<LabeledTable> = [ClassifyFn::F2, ClassifyFn::F3, ClassifyFn::F2]
        .into_iter()
        .enumerate()
        .map(|(i, f)| {
            ClassifyGen::new(f)
                .noise(0.05)
                .generate(4000, 30 + i as u64)
        })
        .collect();
    let models: Vec<_> = datasets
        .iter()
        .map(|d| DecisionTree::fit_par(d, tree_params, Parallelism::Sequential).to_model())
        .collect();
    for m in &models {
        assert!(m.leaves().len() > 128, "{} leaves", m.leaves().len());
    }
    let names: Vec<String> = (0..models.len()).map(|i| format!("t{i}")).collect();
    let params = |par| MatrixParams {
        par,
        ..MatrixParams::default()
    };
    let seq = deviation_matrix::<DtFamily>(
        &models,
        &datasets,
        names.clone(),
        &params(Parallelism::Sequential),
    )
    .unwrap();
    assert_eq!(seq.pruned(), 0, "threshold 0 never prunes");
    for t in THREADS {
        let par = deviation_matrix::<DtFamily>(
            &models,
            &datasets,
            names.clone(),
            &params(Parallelism::Threads(t)),
        )
        .unwrap();
        for i in 0..models.len() {
            for j in 0..models.len() {
                assert_eq!(
                    par.exact(i, j).map(f64::to_bits),
                    seq.exact(i, j).map(f64::to_bits),
                    "exact({i}, {j}), threads = {t}"
                );
            }
        }
    }
}
