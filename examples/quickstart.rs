//! Quickstart: measure whether two datasets differ in their "interesting
//! characteristics" — the FOCUS question.
//!
//! Run with: `cargo run --release --example quickstart`

use focus::core::prelude::*;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::mining::{qualify_pooled, Apriori, AprioriParams};

fn main() {
    // Two snapshot datasets. D1 and D2 come from the SAME generating
    // process (same pattern table, different random draws); D3 comes from a
    // DIFFERENT process (longer patterns).
    let process_a = AssocGen::new(AssocGenParams::small(), 1);
    let process_b = AssocGen::new(
        {
            let mut p = AssocGenParams::small();
            p.avg_pattern_len = 6.0;
            p
        },
        2,
    );
    let d1 = process_a.generate(4000, 10);
    let d2 = process_a.generate(4000, 11);
    let d3 = process_b.generate(4000, 12);

    // Induce the models: frequent itemsets at 2% support.
    let miner = Apriori::new(AprioriParams::with_minsup(0.02));
    let m1 = miner.mine(&d1);
    let m2 = miner.mine(&d2);
    let m3 = miner.mine(&d3);
    println!(
        "model sizes: |M1|={}, |M2|={}, |M3|={}",
        m1.len(),
        m2.len(),
        m3.len()
    );

    // The deviation δ(f_a, g_sum): extend both models to their greatest
    // common refinement, scan once, aggregate per-region differences.
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let dev_same = deviate::<LitsFamily>(&m1, &d1, &m2, &d2, f, g, par).value;
    let dev_diff = deviate::<LitsFamily>(&m1, &d1, &m3, &d3, f, g, par).value;
    println!("δ(D1, D2) [same process]      = {dev_same:.4}");
    println!("δ(D1, D3) [different process] = {dev_diff:.4}");

    // Raw deviation numbers are not interpretable alone — qualify them
    // (Section 3.4): how extreme is the observed deviation under the null
    // hypothesis "one generating process"? Each replicate splits the pooled
    // rows in two; the lits path mines the pool once and counts every split
    // from it.
    let q_same = qualify_pooled(&d1, &d2, &miner, f, g, 49, 7, par);
    let q_diff = qualify_pooled(&d1, &d3, &miner, f, g, 49, 7, par);
    println!(
        "significance: same-process {:.0}%, different-process {:.0}%",
        q_same.significance_percent, q_diff.significance_percent
    );
    assert!(q_diff.significance_percent > q_same.significance_percent);

    // The scan-free upper bound δ* (Definition 4.1) screens cheaply:
    let b_same = lits_upper_bound(&m1, &m2, AggFn::Sum);
    let b_diff = lits_upper_bound(&m1, &m3, AggFn::Sum);
    println!("δ* bounds (no data scan): same {b_same:.4}, different {b_diff:.4}");
    assert!(b_same >= dev_same && b_diff >= dev_diff);
}
