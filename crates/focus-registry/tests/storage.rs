//! Storage equivalence: the same snapshot collection persisted as a flat
//! and as a sharded registry must load datasets and models bit-identical
//! to the in-memory originals, and must produce screened deviation
//! matrices bit-identical to `deviation_matrix` over those originals —
//! for all three model families. Loads read through the mmap path where
//! the platform provides it (and the owned-read fallback elsewhere), so
//! this also pins the zero-copy loads to the originals.

use focus_core::data::{LabeledTable, Schema, Table, TransactionSet, Value};
use focus_core::family::{ClusterFamily, DtFamily, LitsFamily};
use focus_core::model::{induce_dt_measures, ClusterModel};
use focus_core::region::BoxBuilder;
use focus_mining::{Apriori, AprioriParams};
use focus_registry::{
    deviation_matrix, DeviationMatrix, MatrixParams, Registry, RegistryLayout, SnapshotFamily,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus-storage-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn transactions(seed: u64, skew: f64) -> TransactionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = TransactionSet::new(8);
    for _ in 0..250 {
        let t: Vec<u32> = (0..8u32)
            .filter(|&i| rng.gen::<f64>() < 0.15 + skew * (i as f64 / 8.0) * 0.4)
            .collect();
        ts.push(t);
    }
    ts
}

fn dt_snapshot(boundary: f64, rows: usize) -> (LabeledTable, focus_core::model::DtModel) {
    let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
    let mut d = LabeledTable::new(Arc::clone(&schema), 2);
    for r in 0..rows {
        let x = r as f64;
        d.push_row(&[Value::Num(x)], u32::from(x < boundary));
    }
    let model = induce_dt_measures(
        vec![
            BoxBuilder::new(&schema).lt("x", boundary).build(),
            BoxBuilder::new(&schema).ge("x", boundary).build(),
        ],
        &d,
    );
    (d, model)
}

fn cluster_snapshot(split: f64, rows: usize) -> (Table, ClusterModel) {
    let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
    let mut t = Table::new(Arc::clone(&schema));
    for r in 0..rows {
        t.push_row(&[Value::Num(r as f64)]);
    }
    let below = (0..rows).filter(|&r| (r as f64) < split).count() as f64 / rows as f64;
    let clusters = vec![
        BoxBuilder::new(&schema).lt("x", split).build(),
        BoxBuilder::new(&schema).ge("x", split).build(),
    ];
    (
        t,
        ClusterModel::new(clusters, vec![below, 1.0 - below], rows as u64),
    )
}

/// One family's in-memory originals: names, datasets and models.
struct Originals<F: SnapshotFamily> {
    names: Vec<String>,
    datasets: Vec<F::Dataset>,
    models: Vec<F::Model>,
}

impl<F: SnapshotFamily> Originals<F> {
    fn new(snapshots: Vec<(&str, F::Dataset, F::Model)>) -> Self {
        let mut out = Originals {
            names: Vec::new(),
            datasets: Vec::new(),
            models: Vec::new(),
        };
        for (name, data, model) in snapshots {
            out.names.push(name.to_string());
            out.datasets.push(data);
            out.models.push(model);
        }
        out
    }

    fn add_to(&self, reg: &mut Registry) {
        for ((name, data), model) in self.names.iter().zip(&self.datasets).zip(&self.models) {
            reg.add_snapshot::<F>(name, data, model).unwrap();
        }
    }

    /// Loaded artifacts equal the originals, and the registry's matrices —
    /// unscreened and screened — equal `deviation_matrix` over them.
    fn check(&self, tag: &str, reg: &Registry)
    where
        F::Dataset: PartialEq + Debug,
        F::Model: PartialEq + Debug,
    {
        for ((name, data), model) in self.names.iter().zip(&self.datasets).zip(&self.models) {
            let loaded = reg.load_snapshot_dataset::<F>(name).unwrap();
            assert_eq!(&loaded, data, "{tag}: {name} dataset");
            let loaded = reg.load_snapshot_model::<F>(name).unwrap();
            assert_eq!(&loaded, model, "{tag}: {name} model");
        }
        for params in [
            MatrixParams::default(),
            MatrixParams {
                threshold: 0.3,
                ..MatrixParams::default()
            },
        ] {
            let want =
                deviation_matrix::<F>(&self.models, &self.datasets, self.names.clone(), &params)
                    .unwrap();
            let got = reg.matrix_of::<F>(&params).unwrap();
            let label = format!("{tag} {} threshold {}", F::KIND, params.threshold);
            assert_matrices_identical(&label, &got, &want);
        }
    }
}

fn assert_matrices_identical(label: &str, a: &DeviationMatrix, b: &DeviationMatrix) {
    assert_eq!(a.names(), b.names(), "{label}: names");
    assert_eq!(a.scanned(), b.scanned(), "{label}: scanned");
    assert_eq!(a.pruned(), b.pruned(), "{label}: pruned");
    for i in 0..a.len() {
        for j in 0..a.len() {
            assert_eq!(
                a.bound(i, j).to_bits(),
                b.bound(i, j).to_bits(),
                "{label}: bound({i},{j})"
            );
            assert_eq!(
                a.exact(i, j).map(f64::to_bits),
                b.exact(i, j).map(f64::to_bits),
                "{label}: exact({i},{j})"
            );
        }
    }
}

#[test]
fn flat_and_sharded_registries_match_the_originals_bit_for_bit() {
    let miner = Apriori::new(
        AprioriParams::with_minsup(0.15)
            .max_len(10)
            .min_count_floor(2),
    );
    let lits = Originals::<LitsFamily>::new(
        [("t-a", 1, 0.0), ("t-b", 2, 0.4), ("t-c", 3, 1.0)]
            .into_iter()
            .map(|(name, seed, skew)| {
                let data = transactions(seed, skew);
                let model = miner.mine(&data);
                (name, data, model)
            })
            .collect(),
    );
    let dt = Originals::<DtFamily>::new(
        [("d-a", 30.0, 120), ("d-b", 45.0, 150), ("d-c", 90.0, 150)]
            .into_iter()
            .map(|(name, boundary, rows)| {
                let (data, model) = dt_snapshot(boundary, rows);
                (name, data, model)
            })
            .collect(),
    );
    let clu = Originals::<ClusterFamily>::new(
        [("c-a", 20.0, 100), ("c-b", 50.0, 100), ("c-c", 75.0, 120)]
            .into_iter()
            .map(|(name, split, rows)| {
                let (data, model) = cluster_snapshot(split, rows);
                (name, data, model)
            })
            .collect(),
    );

    for (tag, shards) in [("flat", 0), ("sharded", 3)] {
        let dir = scratch(tag);
        let layout = RegistryLayout {
            shards,
            ..RegistryLayout::default()
        };
        let mut reg = Registry::open_or_create_with(&dir, layout).unwrap();
        lits.add_to(&mut reg);
        dt.add_to(&mut reg);
        clu.add_to(&mut reg);
        // Reopen so the on-disk state — not the in-memory handle — is
        // what's compared.
        let reg = Registry::open(&dir).unwrap();
        assert_eq!(reg.layout(), layout, "{tag}");
        assert_eq!(reg.len(), 9, "{tag}");
        lits.check(tag, &reg);
        dt.check(tag, &reg);
        clu.check(tag, &reg);
        std::fs::remove_dir_all(&dir).ok();
    }
}
