//! The paper's marketing-analyst scenario (Section 1): compare customer
//! transaction datasets collected from several stores, decide which stores
//! share data characteristics (and can share a marketing strategy), and
//! drill into *which* itemsets drive the differences.
//!
//! Demonstrates: δ between many dataset pairs, the δ* metric embedding,
//! structural operators + rank/select (Section 5.1), and focussed deviation
//! on one department's items.
//!
//! Run with: `cargo run --release --example retail_monitoring`

use focus::core::prelude::*;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::mining::{Apriori, AprioriParams};

fn main() {
    // Four stores: 1 & 2 share a buying-pattern process, 3 drifts mildly
    // (more patterns), 4 strongly (longer patterns).
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let mut p_mild = AssocGenParams::small();
    p_mild.n_patterns = 80;
    let mut p_strong = AssocGenParams::small();
    p_strong.avg_pattern_len = 7.0;

    let shared = AssocGen::new(AssocGenParams::small(), 42);
    let stores: Vec<(&str, _)> = vec![
        ("store-1", shared.generate(5000, 1)),
        ("store-2", shared.generate(5000, 2)),
        ("store-3", AssocGen::new(p_mild, 43).generate(5000, 3)),
        ("store-4", AssocGen::new(p_strong, 44).generate(5000, 4)),
    ];

    let miner = Apriori::new(AprioriParams::with_minsup(0.02));
    let models: Vec<LitsModel> = stores.iter().map(|(_, d)| miner.mine(d)).collect();

    // --- Pairwise δ* screening (no data scans — Section 4.1.1) ----------
    println!("pairwise δ* (scan-free upper bounds):");
    for i in 0..stores.len() {
        for j in (i + 1)..stores.len() {
            let b = lits_upper_bound(&models[i], &models[j], AggFn::Sum);
            println!("  δ*({}, {}) = {b:.3}", stores[i].0, stores[j].0);
        }
    }

    // --- Exact deviation for the flagged pair ---------------------------
    let dev12 = deviate::<LitsFamily>(
        &models[0],
        &stores[0].1,
        &models[1],
        &stores[1].1,
        f,
        g,
        par,
    );
    let dev14 = deviate::<LitsFamily>(
        &models[0],
        &stores[0].1,
        &models[3],
        &stores[3].1,
        f,
        g,
        par,
    );
    println!(
        "\nexact δ(store-1, store-2) = {:.3}  (same process)",
        dev12.value
    );
    println!(
        "exact δ(store-1, store-4) = {:.3}  (different process)",
        dev14.value
    );
    assert!(dev14.value > dev12.value);

    // --- Section 5.1: which regions drive the difference? ---------------
    // Rank the structural union (= GCR) of the two models by per-region
    // deviation and take the top 5.
    let union = lits_union(models[0].itemsets(), models[3].itemsets());
    let scored = rank(union.clone(), |s| {
        let i = dev14.gcr.binary_search(s).expect("GCR contains union");
        dev14.per_region[i]
    });
    println!("\ntop-5 drifting itemsets between store-1 and store-4:");
    for r in select_top_n(&scored, 5) {
        println!("  {}  Δ = {:.4}", r.region, r.deviation);
    }

    // Structural difference: itemsets frequent in exactly one store —
    // newly appearing / disappearing buying patterns.
    let only_one_side = lits_difference(models[0].itemsets(), models[3].itemsets());
    println!(
        "\nitemsets frequent in exactly one of store-1/store-4: {}",
        only_one_side.len()
    );

    // --- Focussed deviation: one department (items 0..20) ---------------
    let department: Vec<u32> = (0..20).collect();
    let focussed = deviate_focussed::<LitsFamily>(
        &models[0],
        &stores[0].1,
        &models[3],
        &stores[3].1,
        &department,
        f,
        g,
        par,
    );
    println!(
        "focussed δ on department items 0..20: {:.3} over {} regions (total {:.3})",
        focussed.value,
        focussed.gcr.len(),
        dev14.value
    );
    assert!(focussed.value <= dev14.value + 1e-9);
}
