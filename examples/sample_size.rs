//! The sample-size study of Section 6, in miniature: how representative is
//! a random sample, as a function of its size?
//!
//! The *sample deviation* SD = δ(model(D), model(sample)) quantifies the
//! representativeness of a sample; Wilcoxon rank-sum tests on sets of SD
//! values decide whether growing the sample helps significantly.
//!
//! Run with: `cargo run --release --example sample_size`

use focus::core::prelude::*;
use focus::data::classify::{ClassifyFn, ClassifyGen};
use focus::stats::wilcoxon::{rank_sum, Alternative};
use focus::tree::{DecisionTree, TreeParams};

fn fit(data: &LabeledTable) -> DtModel {
    DecisionTree::fit(
        data,
        TreeParams::default()
            .max_depth(8)
            .min_leaf((data.len() / 100).max(5)),
    )
    .to_model()
}

fn main() {
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let data = ClassifyGen::new(ClassifyFn::F2).generate(20_000, 7);
    let full_model = fit(&data);
    println!(
        "full dataset: {} rows, tree with {} leaves",
        data.len(),
        full_model.leaves().len()
    );

    let fractions = [0.05, 0.1, 0.2, 0.4, 0.8];
    let per_fraction = 12;
    let mut sd_sets: Vec<Vec<f64>> = Vec::new();
    println!("\n  SF    mean SD");
    for (i, &sf) in fractions.iter().enumerate() {
        let sds: Vec<f64> = (0..per_fraction)
            .map(|s| {
                let sample = data.sample_fraction(sf, 1000 + (i * 100 + s) as u64);
                let m = fit(&sample);
                deviate::<DtFamily>(&full_model, &data, &m, &sample, f, g, par).value
            })
            .collect();
        let mean = sds.iter().sum::<f64>() / sds.len() as f64;
        println!("  {sf:<5} {mean:.4}");
        sd_sets.push(sds);
    }

    println!("\nWilcoxon: is the larger sample significantly more representative?");
    for w in sd_sets.windows(2).zip(fractions.windows(2)) {
        let (sets, sfs) = w;
        let r = rank_sum(&sets[1], &sets[0], Alternative::Less);
        println!(
            "  {} → {}: significance {:.1}%",
            sfs[0], sfs[1], r.significance_percent
        );
    }

    // The paper's practical takeaway: a 20–30% sample is often sufficient.
    let mean = |v: &Vec<f64>| v.iter().sum::<f64>() / v.len() as f64;
    let sd_small = mean(&sd_sets[0]);
    let sd_large = mean(&sd_sets[4]);
    println!(
        "\nSD shrinks {:.1}× from a 5% to an 80% sample — but most of the
gain arrives by SF ≈ 0.2–0.3 (diminishing returns).",
        sd_small / sd_large.max(1e-12)
    );
}
