//! Criterion bench B8: thread-count scaling of the snapshot-collection
//! deviation-matrix engine (Section 4.1.1's exploratory loop), across all
//! three model families of the generic engine — every family now carries
//! a model-only δ* bound, so every group exercises the screened path.
//!
//! Three screening regimes over the same 8-snapshot lits collection:
//!
//! * `bounds_only` — threshold `+∞`: phase 1 alone, the model-only δ*
//!   sweep (the "Time for δ*" column of Figure 13);
//! * `screened` — a mid-range threshold: realistic mixed workload, some
//!   pairs pruned, some scanned;
//! * `full_scan` — `--top` set to the pair count: every pair pays the
//!   exact two-dataset scan (the `δ` column).
//!
//! The `dt` group runs the same regimes over decision-tree snapshots
//! built the way retraining pipelines produce them — a per-process split
//! skeleton refreshed with each day's measures — so the leaf-mass bound
//! is tight within a process and saturates across processes, and the
//! screened regime genuinely prunes. The `cluster` group does the same
//! with shared cluster boxes per process (centroid-mass/box-overlap
//! bound); its bound is not a metric, but screening is unaffected.
//!
//! Results are bit-identical across the sweep (enforced by
//! `tests/parallel_equiv.rs`); only the wall clock should move.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_core::data::{LabeledTable, Schema, Table, TransactionSet, Value};
use focus_core::family::{ClusterFamily, DtFamily, LitsFamily, ModelFamily};
use focus_core::model::{induce_dt_measures, ClusterModel, DtModel, LitsModel};
use focus_core::region::{BoxBuilder, BoxRegion};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use focus_registry::{deviation_matrix, DeviationMatrix, MatrixParams};
use focus_tree::{DecisionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::sync::Arc;

/// The thread counts the scaling sweep visits.
const THREADS: [usize; 4] = [1, 2, 3, 4];

/// An 8-snapshot collection drawn from two generating processes, so the
/// bound spectrum splits into near pairs (same process) and far pairs.
fn collection() -> (Vec<LitsModel>, Vec<TransactionSet>, Vec<String>) {
    let miner = Apriori::new(AprioriParams::with_minsup(0.02).max_len(10));
    let mut datasets = Vec::new();
    let mut names = Vec::new();
    for i in 0..8u64 {
        let pattern_seed = 1 + (i % 2) * 8;
        let gen = AssocGen::new(AssocGenParams::paper(500, 4.0), pattern_seed);
        datasets.push(gen.generate(4_000, 100 + i));
        names.push(format!("snap-{i}"));
    }
    let models = datasets.iter().map(|d| miner.mine(d)).collect();
    (models, datasets, names)
}

/// A 6-snapshot dt collection over two Agrawal functions. One split
/// skeleton is fitted per function and re-measured on each day's data —
/// the retraining pattern that makes the leaf-mass δ* bound informative:
/// matched leaves pair up within a function, nothing matches across.
fn dt_collection() -> (Vec<DtModel>, Vec<LabeledTable>, Vec<String>) {
    let params = TreeParams::default().max_depth(6).min_leaf(20);
    let mut datasets = Vec::new();
    let mut names = Vec::new();
    for i in 0..6u64 {
        let function = if i % 2 == 0 {
            ClassifyFn::F2
        } else {
            ClassifyFn::F5
        };
        datasets.push(ClassifyGen::new(function).generate(4_000, 200 + i));
        names.push(format!("dt-{i}"));
    }
    let skeletons: Vec<Vec<BoxRegion>> = (0..2)
        .map(|f| {
            DecisionTree::fit(&datasets[f], params)
                .to_model()
                .leaves()
                .to_vec()
        })
        .collect();
    let models = datasets
        .iter()
        .enumerate()
        .map(|(i, d)| induce_dt_measures(skeletons[i % 2].clone(), d))
        .collect();
    (models, datasets, names)
}

/// A 6-snapshot cluster collection over two generating processes in
/// disjoint spans, with one shared set of cluster boxes per process and
/// per-day selectivity measures (the bound's dominance contract).
fn cluster_collection() -> (Vec<ClusterModel>, Vec<Table>, Vec<String>) {
    let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
    let boxes = |spans: &[(f64, f64)]| -> Vec<BoxRegion> {
        spans
            .iter()
            .map(|&(lo, hi)| BoxBuilder::new(&schema).range("x", lo, hi).build())
            .collect()
    };
    let process_boxes = [
        boxes(&[(0.0, 30.0), (50.0, 80.0)]),
        boxes(&[(100.0, 130.0), (150.0, 180.0)]),
    ];
    let mut datasets = Vec::new();
    let mut models = Vec::new();
    let mut names = Vec::new();
    for i in 0..6u64 {
        let shift = (i % 2) as f64 * 100.0;
        let mut rng = StdRng::seed_from_u64(300 + i);
        let mut t = Table::new(Arc::clone(&schema));
        for _ in 0..4_000 {
            t.push_row(&[Value::Num(shift + rng.gen::<f64>() * 90.0)]);
        }
        let bx = &process_boxes[(i % 2) as usize];
        let measures: Vec<f64> = bx
            .iter()
            .map(|b| t.rows().filter(|r| b.contains(r)).count() as f64 / t.len() as f64)
            .collect();
        models.push(ClusterModel::new(bx.clone(), measures, t.len() as u64));
        datasets.push(t);
        names.push(format!("cl-{i}"));
    }
    (models, datasets, names)
}

/// The median pair bound of a collection — a threshold between the
/// intra- and inter-process bound levels, so screening genuinely prunes.
fn median_bound(probe: &DeviationMatrix) -> f64 {
    let mut bounds: Vec<f64> = (0..probe.len())
        .flat_map(|i| ((i + 1)..probe.len()).map(move |j| (i, j)))
        .map(|(i, j)| probe.bound(i, j))
        .collect();
    bounds.sort_by(f64::total_cmp);
    bounds[bounds.len() / 2]
}

fn bench_family<F: ModelFamily>(
    c: &mut Criterion,
    group_name: &str,
    models: &[F::Model],
    datasets: &[F::Dataset],
    names: &[String],
) where
    F::Model: Sync,
    F::Dataset: Sync,
{
    let probe = deviation_matrix::<F>(
        models,
        datasets,
        names.to_vec(),
        &MatrixParams {
            threshold: f64::INFINITY,
            par: Parallelism::Sequential,
            ..MatrixParams::default()
        },
    )
    .expect("valid params");
    let n_pairs = probe.n_pairs();
    let mid = median_bound(&probe);

    let mut group = c.benchmark_group(group_name);
    group.sample_size(10);
    for t in THREADS {
        let par = Parallelism::Threads(t);
        for (regime, threshold, top) in [
            ("bounds_only", f64::INFINITY, None),
            ("screened", mid, None),
            ("full_scan", 0.0, Some(n_pairs)),
        ] {
            let params = MatrixParams {
                threshold,
                top,
                par,
                ..MatrixParams::default()
            };
            group.bench_with_input(BenchmarkId::new(regime, t), &params, |b, params| {
                b.iter(|| {
                    black_box(
                        deviation_matrix::<F>(models, datasets, names.to_vec(), params)
                            .expect("valid params"),
                    )
                })
            });
        }
    }
    group.finish();
}

fn bench_scaling_matrix(c: &mut Criterion) {
    let (models, datasets, names) = collection();
    bench_family::<LitsFamily>(c, "scaling_matrix", &models, &datasets, &names);

    let (dt_models, dt_datasets, dt_names) = dt_collection();
    bench_family::<DtFamily>(c, "scaling_matrix_dt", &dt_models, &dt_datasets, &dt_names);

    let (cl_models, cl_datasets, cl_names) = cluster_collection();
    bench_family::<ClusterFamily>(
        c,
        "scaling_matrix_cluster",
        &cl_models,
        &cl_datasets,
        &cl_names,
    );
}

criterion_group!(benches, bench_scaling_matrix);
criterion_main!(benches);
