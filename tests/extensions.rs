//! Integration tests for the extension subsystems: counting-engine
//! parity, model persistence, embedding and drift injection.

use focus::core::prelude::*;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::data::classify::{ClassifyFn, ClassifyGen};
use focus::data::drift;
use focus::mining::{Apriori, AprioriParams};
use focus::registry::binfmt::{decode_dt_model, encode_dt_model};

#[test]
fn engine_arms_match_bitmap_counter_end_to_end() {
    // Generator → miner → the counting engine's two arms over the mined
    // pairs, each against the bitmap reference scan.
    let gen = AssocGen::new(AssocGenParams::small(), 5);
    let data = gen.generate(1500, 7);
    let model = Apriori::new(AprioriParams::with_minsup(0.02).min_count_floor(3)).mine(&data);
    let pairs: Vec<Itemset> = model
        .itemsets()
        .iter()
        .filter(|s| s.len() == 2)
        .cloned()
        .collect();
    if pairs.is_empty() {
        panic!("workload produced no frequent pairs — weak test setup");
    }
    let bitmap_counts = count_itemsets(&data, &pairs, Parallelism::Global);
    let horizontal = CountSource::borrowed(&data).with_index_budget(0);
    let vertical = CountSource::from_index(VerticalIndex::build(&data));
    assert_eq!(
        horizontal.counts(&pairs, Parallelism::Global),
        bitmap_counts
    );
    assert_eq!(vertical.counts(&pairs, Parallelism::Global), bitmap_counts);
}

#[test]
fn models_survive_disk_round_trips_mid_pipeline() {
    // mine → persist → reload → δ* must equal the in-memory value.
    let g1 = AssocGen::new(AssocGenParams::small(), 9);
    let g2 = AssocGen::new(AssocGenParams::small(), 10);
    let miner = Apriori::new(AprioriParams::with_minsup(0.03).min_count_floor(3));
    let m1 = miner.mine(&g1.generate(1000, 1));
    let m2 = miner.mine(&g2.generate(1000, 2));
    let in_memory = lits_upper_bound(&m1, &m2, AggFn::Sum);

    let mut buf1 = Vec::new();
    let mut buf2 = Vec::new();
    write_lits_model(&m1, &mut buf1).unwrap();
    write_lits_model(&m2, &mut buf2).unwrap();
    let r1 = read_lits_model(buf1.as_slice()).unwrap();
    let r2 = read_lits_model(buf2.as_slice()).unwrap();
    assert_eq!(lits_upper_bound(&r1, &r2, AggFn::Sum), in_memory);
}

#[test]
fn dt_model_persistence_preserves_deviation() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let d1 = ClassifyGen::new(ClassifyFn::F1).generate(2000, 1);
    let d2 = ClassifyGen::new(ClassifyFn::F2).generate(2000, 2);
    let fit = |d: &LabeledTable| {
        focus::tree::DecisionTree::fit(
            d,
            focus::tree::TreeParams::default().max_depth(6).min_leaf(20),
        )
        .to_model()
    };
    let m1 = fit(&d1);
    let m2 = fit(&d2);
    let schema = d1.table.schema();
    let before = deviate::<DtFamily>(&m1, &d1, &m2, &d2, f, g, par).value;

    let bytes = encode_dt_model(&m1, schema);
    let (m1_back, _) = decode_dt_model(&bytes).unwrap();
    let after = deviate::<DtFamily>(&m1_back, &d1, &m2, &d2, f, g, par).value;
    assert_eq!(before, after);
}

#[test]
fn label_noise_increases_dt_deviation_monotonically() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let base = ClassifyGen::new(ClassifyFn::F2).generate(4000, 3);
    let fit = |d: &LabeledTable| {
        focus::tree::DecisionTree::fit(
            d,
            focus::tree::TreeParams::default().max_depth(8).min_leaf(40),
        )
        .to_model()
    };
    let m_base = fit(&base);
    let mut prev = -1.0;
    for noise in [0.0, 0.1, 0.3] {
        let noisy = drift::flip_labels(&base, noise, 7);
        let m_noisy = fit(&noisy);
        let dev = deviate::<DtFamily>(&m_base, &base, &m_noisy, &noisy, f, g, par).value;
        assert!(
            dev > prev,
            "deviation must grow with label noise: {dev} after {prev}"
        );
        prev = dev;
    }
}

#[test]
fn item_permutation_preserves_magnitude_but_moves_structure() {
    // Permuting item ids preserves the support *distribution* but relocates
    // every itemset: FOCUS must see a large structural deviation.
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let gen = AssocGen::new(AssocGenParams::small(), 11);
    let d = gen.generate(2500, 1);
    let permuted = drift::permute_items(&d, 99);

    let miner = Apriori::new(AprioriParams::with_minsup(0.03).min_count_floor(3));
    let m1 = miner.mine(&d);
    let m2 = miner.mine(&permuted);
    let dev = deviate::<LitsFamily>(&m1, &d, &m2, &permuted, f, g, par).value;
    let dev_same = {
        let d2 = gen.generate(2500, 2);
        let m_same = miner.mine(&d2);
        deviate::<LitsFamily>(&m1, &d, &m_same, &d2, f, g, par).value
    };
    assert!(
        dev > 2.0 * dev_same,
        "structural relocation {dev} must dwarf sampling noise {dev_same}"
    );
}

#[test]
fn dilute_item_is_a_focussed_change() {
    // Deleting one frequent item's occurrences must move the focussed
    // deviation on that item far more than on an untouched item.
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let gen = AssocGen::new(AssocGenParams::small(), 13);
    let d = gen.generate(3000, 1);
    // Find the most frequent item.
    let mut counts = vec![0usize; 100];
    for t in d.iter() {
        for &i in t {
            counts[i as usize] += 1;
        }
    }
    let target = (0..100u32).max_by_key(|&i| counts[i as usize]).unwrap();
    let other = (0..100u32)
        .filter(|&i| i != target)
        .max_by_key(|&i| counts[i as usize])
        .unwrap();

    let diluted = drift::dilute_item(&d, target, 0.7, 17);
    let miner = Apriori::new(AprioriParams::with_minsup(0.02).min_count_floor(3));
    let m1 = miner.mine(&d);
    let m2 = miner.mine(&diluted);
    let dev_target =
        deviate_focussed::<LitsFamily>(&m1, &d, &m2, &diluted, &[target], f, g, par).value;
    let dev_other =
        deviate_focussed::<LitsFamily>(&m1, &d, &m2, &diluted, &[other], f, g, par).value;
    assert!(
        dev_target > 5.0 * dev_other.max(1e-9),
        "target {dev_target} vs untouched {dev_other}"
    );
}

#[test]
fn embedding_groups_same_process_models() {
    let p = AssocGen::new(AssocGenParams::small(), 21);
    let mut drifted = AssocGenParams::small();
    drifted.avg_pattern_len = 7.0;
    let q = AssocGen::new(drifted, 22);
    let miner = Apriori::new(AprioriParams::with_minsup(0.03).min_count_floor(3));
    let models: Vec<LitsModel> = vec![
        miner.mine(&p.generate(1500, 1)),
        miner.mine(&p.generate(1500, 2)),
        miner.mine(&q.generate(1500, 3)),
        miner.mine(&q.generate(1500, 4)),
    ];
    let dm = DistanceMatrix::from_lits_models(&models);
    let coords = dm.embed(2);
    let euclid = |a: &[f64], b: &[f64]| {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    };
    let within = euclid(&coords[0], &coords[1]) + euclid(&coords[2], &coords[3]);
    let across = euclid(&coords[0], &coords[2]) + euclid(&coords[1], &coords[3]);
    assert!(
        across > within,
        "process groups must separate: within {within}, across {across}"
    );
}
