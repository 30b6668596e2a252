//! Snapshot collections for the deviation-matrix experiments — one per
//! model family, each drawn from **two generating processes** so the pair
//! bounds split into a near (intra-process) and a far (inter-process)
//! level and a mid-range threshold genuinely prunes.
//!
//! Built by the `matrix_baseline` binary, which records
//! `BENCH_matrix.json`.

use focus_core::data::{LabeledTable, Schema, Table, TransactionSet, Value};
use focus_core::model::{induce_dt_measures, ClusterModel, DtModel, LitsModel};
use focus_core::region::{BoxBuilder, BoxRegion};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_mining::{Apriori, AprioriParams};
use focus_registry::DeviationMatrix;
use focus_tree::{DecisionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// An 8-snapshot lits collection (4000 transactions each) over two
/// pattern processes, mined at 2% minsup.
pub fn lits_collection() -> (Vec<LitsModel>, Vec<TransactionSet>, Vec<String>) {
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
pub fn dt_collection() -> (Vec<DtModel>, Vec<LabeledTable>, Vec<String>) {
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
pub fn cluster_collection() -> (Vec<ClusterModel>, Vec<Table>, Vec<String>) {
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
pub fn median_bound(probe: &DeviationMatrix) -> f64 {
    let mut bounds: Vec<f64> = (0..probe.len())
        .flat_map(|i| ((i + 1)..probe.len()).map(move |j| (i, j)))
        .map(|(i, j)| probe.bound(i, j))
        .collect();
    bounds.sort_by(f64::total_cmp);
    bounds[bounds.len() / 2]
}
