//! Randomized round-trip properties for the binary columnar snapshot
//! format, the one format registry artifacts use: for every family, many
//! random datasets and models — mixed schemas, empty models, ±infinite
//! interval endpoints, empty and full category masks — must survive
//! encode → decode bit-for-bit, and
//! every single-byte corruption of an encoded artifact must surface a
//! named [`BinError`], never a silent wrong read.

use focus_core::data::{AttrType, LabeledTable, Schema, Table, TransactionSet, Value};
use focus_core::model::{ClusterModel, DtModel, LitsModel};
use focus_core::region::{AttrConstraint, BoxRegion, CatMask, Itemset};
use focus_registry::binfmt::{
    decode_cluster_model, decode_dt_model, decode_labeled_table, decode_lits_model, decode_table,
    decode_transactions, encode_cluster_model, encode_dt_model, encode_labeled_table,
    encode_lits_model, encode_table, encode_transactions,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

const SEEDS: u64 = 24;

/// The cardinality of attribute `i`, `None` when numeric.
fn card_of(schema: &Schema, i: usize) -> Option<u32> {
    match schema.attr(i).ty {
        AttrType::Numeric => None,
        AttrType::Categorical { cardinality } => Some(cardinality),
    }
}

fn random_schema(rng: &mut StdRng) -> Arc<Schema> {
    let n_attrs = rng.gen_range(1..6);
    let attrs = (0..n_attrs)
        .map(|i| {
            if rng.gen_bool(0.5) {
                Schema::numeric(&format!("num{i}"))
            } else {
                Schema::categorical(&format!("cat{i}"), rng.gen_range(1..7))
            }
        })
        .collect();
    Arc::new(Schema::new(attrs))
}

fn random_row(rng: &mut StdRng, schema: &Schema) -> Vec<Value> {
    (0..schema.len())
        .map(|i| match card_of(schema, i) {
            None => Value::Num(rng.gen_range(-1e6..1e6)),
            Some(card) => Value::Cat(rng.gen_range(0..card)),
        })
        .collect()
}

fn random_transactions(rng: &mut StdRng) -> TransactionSet {
    let n_items = rng.gen_range(1..33u32);
    let mut ts = TransactionSet::new(n_items);
    for _ in 0..rng.gen_range(0..200) {
        let len = rng.gen_range(0..n_items.min(6) + 1);
        let items = (0..len).map(|_| rng.gen_range(0..n_items)).collect();
        ts.push(items);
    }
    ts
}

/// A random box over `schema`: numeric attributes get an interval whose
/// endpoints are sometimes ±∞, categorical ones a random (possibly empty
/// or full) code mask.
fn random_region(rng: &mut StdRng, schema: &Schema) -> BoxRegion {
    let constraints = (0..schema.len())
        .map(|i| match card_of(schema, i) {
            None => {
                let lo = if rng.gen_bool(0.25) {
                    f64::NEG_INFINITY
                } else {
                    rng.gen_range(-100.0..100.0)
                };
                let hi = if rng.gen_bool(0.25) {
                    f64::INFINITY
                } else {
                    lo.max(rng.gen_range(-100.0..100.0))
                };
                AttrConstraint::Interval { lo, hi }
            }
            Some(card) => {
                let codes: Vec<u32> = (0..card).filter(|_| rng.gen_bool(0.4)).collect();
                AttrConstraint::Cats(CatMask::of(card, &codes))
            }
        })
        .collect();
    BoxRegion {
        constraints,
        class: None,
    }
}

#[test]
fn transactions_survive_binary_round_trip() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let ts = random_transactions(&mut rng);
        let back = decode_transactions(&encode_transactions(&ts)).unwrap();
        assert_eq!(back, ts, "seed {seed}");
    }
}

#[test]
fn tables_survive_binary_round_trip() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng);
        let mut t = Table::new(Arc::clone(&schema));
        for _ in 0..rng.gen_range(0..120) {
            t.push_row(&random_row(&mut rng, &schema));
        }
        assert_eq!(decode_table(&encode_table(&t)).unwrap(), t, "seed {seed}");

        let n_classes = rng.gen_range(1..5);
        let mut lt = LabeledTable::new(Arc::clone(&schema), n_classes);
        for _ in 0..rng.gen_range(0..120) {
            let row = random_row(&mut rng, &schema);
            lt.push_row(&row, rng.gen_range(0..n_classes));
        }
        assert_eq!(
            decode_labeled_table(&encode_labeled_table(&lt)).unwrap(),
            lt,
            "seed {seed}"
        );
    }
}

#[test]
fn lits_models_survive_binary_round_trip() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let n_sets = rng.gen_range(0..40);
        let mut itemsets = Vec::new();
        let mut supports = Vec::new();
        for _ in 0..n_sets {
            let len = rng.gen_range(1..6u32);
            // Strictly increasing items, as the miner produces.
            let mut items: Vec<u32> = (0..len).map(|k| k * 7 + rng.gen_range(0..7u32)).collect();
            items.dedup();
            itemsets.push(Itemset::from_slice(&items));
            supports.push(rng.gen::<f64>());
        }
        let model = LitsModel::new(itemsets, supports, rng.gen_range(0.0..0.5), 10_000);
        let back = decode_lits_model(&encode_lits_model(&model)).unwrap();
        assert_eq!(back, model, "seed {seed}");
    }
}

#[test]
fn dt_and_cluster_models_survive_binary_round_trip() {
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let schema = random_schema(&mut rng);
        let n_leaves = rng.gen_range(0..12);
        let n_classes = rng.gen_range(1..5);
        let leaves: Vec<BoxRegion> = (0..n_leaves)
            .map(|_| random_region(&mut rng, &schema))
            .collect();
        let measures = (0..n_leaves * n_classes as usize)
            .map(|_| rng.gen::<f64>())
            .collect();
        let dt = DtModel::new(leaves.clone(), n_classes, measures, 5000);
        let (back, back_schema) = decode_dt_model(&encode_dt_model(&dt, &schema)).unwrap();
        assert_eq!(back, dt, "seed {seed}");
        assert_eq!(*back_schema, *schema, "seed {seed}");

        let cluster_measures = (0..n_leaves).map(|_| rng.gen::<f64>()).collect();
        let clu = ClusterModel::new(leaves, cluster_measures, 5000);
        let bytes = encode_cluster_model(&clu, &schema).unwrap();
        let (back, back_schema) = decode_cluster_model(&bytes).unwrap();
        assert_eq!(back, clu, "seed {seed}");
        assert_eq!(*back_schema, *schema, "seed {seed}");
    }
}

/// Flipping *any* single byte of an encoded artifact must make decoding
/// fail — the per-section checksums leave no blind spots where corruption
/// could pass as valid data.
#[test]
fn every_single_byte_flip_is_detected() {
    let mut rng = StdRng::seed_from_u64(42);
    let ts = random_transactions(&mut rng);
    let schema = random_schema(&mut rng);
    let mut lt = LabeledTable::new(Arc::clone(&schema), 3);
    for _ in 0..40 {
        let row = random_row(&mut rng, &schema);
        lt.push_row(&row, rng.gen_range(0..3));
    }
    let leaves: Vec<BoxRegion> = (0..4).map(|_| random_region(&mut rng, &schema)).collect();
    let dt = DtModel::new(
        leaves.clone(),
        3,
        (0..12).map(|_| rng.gen::<f64>()).collect(),
        40,
    );
    let clu = ClusterModel::new(leaves, (0..4).map(|_| rng.gen::<f64>()).collect(), 40);
    let lits = LitsModel::new(
        vec![Itemset::from_slice(&[0]), Itemset::from_slice(&[1, 3])],
        vec![0.5, 0.25],
        0.1,
        200,
    );

    type Sweep = (&'static str, Vec<u8>, Box<dyn Fn(&[u8]) -> bool>);
    let sweeps: Vec<Sweep> = vec![
        (
            "txns",
            encode_transactions(&ts),
            Box::new(|b| decode_transactions(b).is_err()),
        ),
        (
            "ltbl",
            encode_labeled_table(&lt),
            Box::new(|b| decode_labeled_table(b).is_err()),
        ),
        (
            "lits",
            encode_lits_model(&lits),
            Box::new(|b| decode_lits_model(b).is_err()),
        ),
        (
            "dt",
            encode_dt_model(&dt, &schema),
            Box::new(|b| decode_dt_model(b).is_err()),
        ),
        (
            "cluster",
            encode_cluster_model(&clu, &schema).unwrap(),
            Box::new(|b| decode_cluster_model(b).is_err()),
        ),
    ];
    for (tag, bytes, fails) in &sweeps {
        for pos in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[pos] ^= 0x2a;
            assert!(fails(&corrupt), "{tag}: flip at byte {pos} went undetected");
        }
        // Truncation at any length must fail too.
        for cut in 0..bytes.len() {
            assert!(fails(&bytes[..cut]), "{tag}: truncation to {cut} bytes");
        }
    }
}
