//! Criterion bench B6: clustering substrates — BIRCH (one CF-tree pass +
//! agglomerative merge) versus k-means (k-means++ + Lloyd) on blob data,
//! plus the cluster-model deviation (overlay-with-remainders GCR).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_cluster::{Birch, BirchParams, KMeans, KMeansParams};
use focus_core::data::{Schema, Table, Value};
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::ClusterFamily;
use focus_exec::Parallelism;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

fn blobs(n_per: usize, centers: &[(f64, f64)], seed: u64) -> Table {
    let schema = Arc::new(Schema::new(vec![
        Schema::numeric("x"),
        Schema::numeric("y"),
    ]));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Table::new(schema);
    for &(cx, cy) in centers {
        for _ in 0..n_per {
            t.push_row(&[
                Value::Num(cx + rng.gen::<f64>() * 8.0),
                Value::Num(cy + rng.gen::<f64>() * 8.0),
            ]);
        }
    }
    t
}

fn bench_clustering(c: &mut Criterion) {
    let centers = [(0.0, 0.0), (50.0, 0.0), (0.0, 50.0), (50.0, 50.0)];
    let mut group = c.benchmark_group("clustering");
    for &n_per in &[500usize, 2_000] {
        let data = blobs(n_per, &centers, 1);
        group.bench_with_input(BenchmarkId::new("kmeans_k4", n_per * 4), &data, |b, d| {
            b.iter(|| {
                black_box(KMeans::new(KMeansParams::new(4).seed(2)).fit(d, Parallelism::Global))
            })
        });
        group.bench_with_input(BenchmarkId::new("birch_k4", n_per * 4), &data, |b, d| {
            b.iter(|| black_box(Birch::new(BirchParams::new(4.0, 4)).fit(d)))
        });
    }
    // Cluster-model deviation (GCR with remainders).
    let d1 = blobs(1_000, &centers, 3);
    let d2 = blobs(
        1_000,
        &[(5.0, 5.0), (55.0, 5.0), (5.0, 55.0), (55.0, 55.0)],
        4,
    );
    let m1 = KMeans::new(KMeansParams::new(4).seed(5))
        .fit(&d1, Parallelism::Global)
        .to_model(&d1);
    let m2 = KMeans::new(KMeansParams::new(4).seed(6))
        .fit(&d2, Parallelism::Global)
        .to_model(&d2);
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    group.bench_function("cluster_deviation_4x4", |b| {
        b.iter(|| black_box(deviate::<ClusterFamily>(&m1, &d1, &m2, &d2, f, g, par).value))
    });
    group.finish();
}

criterion_group!(benches, bench_clustering);
criterion_main!(benches);
