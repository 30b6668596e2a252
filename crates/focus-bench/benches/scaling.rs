//! Criterion bench B7: thread-count scaling of the parallel execution
//! engine — the three chunked dataset scans (itemset counting, partition
//! routing, box counting), the bootstrap per-replicate fan-out, and the
//! model-induction hot paths (decision-tree fitting, k-means Lloyd
//! iterations, monitor calibration), each at `--threads 1..=4`. Results
//! are bit-identical across the sweep (enforced by
//! `tests/parallel_equiv.rs`); only the wall clock should move.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_cluster::{KMeans, KMeansParams};
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::LitsFamily;
use focus_core::model::{count_boxes, count_itemsets, count_partition};
use focus_core::qualify::qualify_transactions_par;
use focus_core::region::BoxBuilder;
use focus_core::stream::calibrate_threshold;
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use focus_tree::{DecisionTree, TreeParams};
use std::hint::black_box;

/// The thread counts the scaling sweep visits.
const THREADS: [usize; 4] = [1, 2, 3, 4];

fn bench_scaling(c: &mut Criterion) {
    let gen = AssocGen::new(AssocGenParams::paper(2000, 4.0), 3);
    let txns = gen.generate(20_000, 5);
    let model = Apriori::new(AprioriParams::with_minsup(0.01).max_len(10)).mine(&txns);
    let itemsets = model.itemsets().to_vec();

    let labeled = ClassifyGen::new(ClassifyFn::F2).generate(20_000, 7);
    let schema = labeled.table.schema().clone();
    let leaves = vec![
        BoxBuilder::new(&schema).lt("age", 40.0).build(),
        BoxBuilder::new(&schema).range("age", 40.0, 60.0).build(),
        BoxBuilder::new(&schema).ge("age", 60.0).build(),
    ];
    let boxes: Vec<_> = leaves.clone();

    let mut group = c.benchmark_group("scaling");
    for t in THREADS {
        let par = Parallelism::Threads(t);
        group.bench_with_input(BenchmarkId::new("count_itemsets", t), &par, |b, &par| {
            b.iter(|| black_box(count_itemsets(&txns, &itemsets, par)))
        });
        group.bench_with_input(BenchmarkId::new("count_partition", t), &par, |b, &par| {
            b.iter(|| black_box(count_partition(&labeled, &leaves, 2, par)))
        });
        group.bench_with_input(BenchmarkId::new("count_boxes", t), &par, |b, &par| {
            b.iter(|| black_box(count_boxes(&labeled.table, &boxes, par)))
        });
    }
    group.finish();

    // Bootstrap fan-out: each replicate re-mines both pseudo-datasets, so
    // this is the paper's full qualification pipeline (Section 3.4) under
    // the per-replicate fan-out. Smaller data keeps the bench short.
    let d1 = gen.generate(2_000, 11);
    let d2 = gen.generate(2_000, 12);
    let miner = Apriori::new(
        AprioriParams::with_minsup(0.02)
            .max_len(10)
            .min_count_floor(3),
    );
    let pipeline = |a: &focus_core::data::TransactionSet, b: &focus_core::data::TransactionSet| {
        let ma = miner.mine(a);
        let mb = miner.mine(b);
        deviate::<LitsFamily>(
            &ma,
            a,
            &mb,
            b,
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Sequential,
        )
        .value
    };
    let observed = pipeline(&d1, &d2);
    let mut group = c.benchmark_group("scaling_bootstrap");
    for t in THREADS {
        let par = Parallelism::Threads(t);
        group.bench_with_input(BenchmarkId::new("qualify", t), &par, |b, &par| {
            b.iter(|| {
                black_box(qualify_transactions_par(
                    &d1, &d2, observed, 8, 42, par, pipeline,
                ))
            })
        });
    }
    group.finish();

    // Model induction: greedy tree building (parallel split search +
    // sibling-subtree forks) and k-means Lloyd iterations (parallel
    // assignment + fixed-order centroid folds).
    let mut group = c.benchmark_group("scaling_induction");
    let km = KMeans::new(KMeansParams::new(8).seed(3).max_iters(25));
    for t in THREADS {
        let par = Parallelism::Threads(t);
        group.bench_with_input(BenchmarkId::new("dt_fit", t), &par, |b, &par| {
            b.iter(|| {
                black_box(DecisionTree::fit_par(
                    &labeled,
                    TreeParams::default().max_depth(8).min_leaf(20),
                    par,
                ))
            })
        });
        group.bench_with_input(BenchmarkId::new("kmeans_fit", t), &par, |b, &par| {
            b.iter(|| black_box(km.fit(&labeled.table, par)))
        });
    }
    group.finish();

    // Monitor calibration: one full mine-and-deviate pipeline per
    // replicate, replicates fanned out with per-replicate seeds.
    let reference = gen.generate(2_000, 21);
    let cal_pipeline = |a: &focus_core::data::TransactionSet,
                        b: &focus_core::data::TransactionSet| {
        let ma = miner.mine(a);
        let mb = miner.mine(b);
        deviate::<LitsFamily>(
            &ma,
            a,
            &mb,
            b,
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Sequential,
        )
        .value
    };
    let mut group = c.benchmark_group("scaling_calibration");
    for t in THREADS {
        let par = Parallelism::Threads(t);
        group.bench_with_input(BenchmarkId::new("calibrate", t), &par, |b, &par| {
            b.iter(|| {
                black_box(calibrate_threshold(
                    &reference,
                    500,
                    0.95,
                    12,
                    9,
                    par,
                    &cal_pipeline,
                ))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
