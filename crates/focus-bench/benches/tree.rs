//! Criterion bench B3: CART construction cost versus dataset size and the
//! dt deviation (overlay + two scans) cost — the per-replicate price of the
//! Figure 14 bootstrap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::DtFamily;
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_exec::Parallelism;
use focus_tree::{DecisionTree, TreeParams};
use std::hint::black_box;

fn params(n: usize) -> TreeParams {
    TreeParams::default()
        .max_depth(10)
        .min_leaf((n / 200).max(5))
}

fn bench_tree(c: &mut Criterion) {
    let mut group = c.benchmark_group("cart");
    for &n in &[2_000usize, 10_000] {
        let data = ClassifyGen::new(ClassifyFn::F2).generate(n, 3);
        group.bench_with_input(BenchmarkId::new("fit", n), &n, |b, &n| {
            b.iter(|| black_box(DecisionTree::fit(&data, params(n))))
        });
    }
    // dt deviation between two fitted models.
    let n = 10_000;
    let d1 = ClassifyGen::new(ClassifyFn::F1).generate(n, 5);
    let d2 = ClassifyGen::new(ClassifyFn::F3).generate(n, 6);
    let m1 = DecisionTree::fit(&d1, params(n)).to_model();
    let m2 = DecisionTree::fit(&d2, params(n)).to_model();
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    group.bench_function("dt_deviation_10k", |b| {
        b.iter(|| black_box(deviate::<DtFamily>(&m1, &d1, &m2, &d2, f, g, par).value))
    });
    group.finish();
}

criterion_group!(benches, bench_tree);
criterion_main!(benches);
