//! Shared experiment pipelines: sample-deviation measurement (Section 6)
//! and the deviation-with-significance rows of Section 7.

use focus_core::data::{LabeledTable, TransactionSet};
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::{DtFamily, LitsFamily};
use focus_core::model::{DtModel, LitsModel};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use focus_tree::{DecisionTree, TreeParams};

/// Mines a lits-model with two safety rails for scaled-down runs: a cap on
/// itemset length (the paper's pattern lengths are 4–5, so 10 never binds
/// in practice) and an absolute supporting-count floor of 3 (so a 1% sample
/// of an already-scaled dataset cannot degenerate into "every subset of
/// every transaction is frequent"). At the paper's full scale both rails
/// are inert.
pub fn mine(data: &TransactionSet, minsup: f64) -> LitsModel {
    miner(minsup).mine(data)
}

/// The miner [`mine`] runs, for callers that qualify with it
/// (`focus_mining::qualify_pooled`).
pub fn miner(minsup: f64) -> Apriori {
    Apriori::new(
        AprioriParams::with_minsup(minsup)
            .max_len(10)
            .min_count_floor(3),
    )
}

/// Tree parameters used by the dt experiments: pre-pruning scaled to the
/// dataset size (≈0.5% of rows per leaf, depth 10), mirroring the scale of
/// trees the paper's RainForest/CART setup produces.
pub fn experiment_tree_params(n_rows: usize) -> TreeParams {
    TreeParams::default()
        .max_depth(10)
        .min_leaf((n_rows / 200).max(5))
        .min_gain(1e-6)
}

/// Builds a dt-model with the experiment parameters.
pub fn fit_dt(data: &LabeledTable) -> DtModel {
    DecisionTree::fit(data, experiment_tree_params(data.len())).to_model()
}

/// One lits **sample deviation** (SD, Section 6): draw a `sf`-fraction
/// sample of `data`, mine it at `minsup`, and measure
/// `δ(f_a, g_sum)(M_D, M_S)` between the full model and the sample model.
pub fn lits_sample_deviation(
    data: &TransactionSet,
    full_model: &LitsModel,
    minsup: f64,
    sf: f64,
    seed: u64,
) -> f64 {
    let sample = data.sample_fraction(sf, seed);
    let sample_model = mine(&sample, minsup);
    deviate::<LitsFamily>(
        full_model,
        data,
        &sample_model,
        &sample,
        DiffFn::Absolute,
        AggFn::Sum,
        Parallelism::Global,
    )
    .value
}

/// One dt sample deviation: sample, fit a tree, measure
/// `δ(f_a, g_sum)(M_D, M_S)`.
pub fn dt_sample_deviation(data: &LabeledTable, full_model: &DtModel, sf: f64, seed: u64) -> f64 {
    let sample = data.sample_fraction(sf, seed);
    let sample_model = fit_dt(&sample);
    deviate::<DtFamily>(
        full_model,
        data,
        &sample_model,
        &sample,
        DiffFn::Absolute,
        AggFn::Sum,
        Parallelism::Global,
    )
    .value
}

/// The paper's sample-fraction grid (Tables 1–2, Figures 7–12).
pub const SAMPLE_FRACTIONS: [f64; 11] = [0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9];

/// Collects `samples` SD values per sample fraction (the paper's "sets of
/// 50 sample deviation values for each size").
pub fn lits_sd_sets(
    data: &TransactionSet,
    minsup: f64,
    fractions: &[f64],
    samples: usize,
    seed: u64,
) -> Vec<(f64, Vec<f64>)> {
    let full_model = mine(data, minsup);
    fractions
        .iter()
        .enumerate()
        .map(|(i, &sf)| {
            let sds = (0..samples)
                .map(|s| {
                    lits_sample_deviation(
                        data,
                        &full_model,
                        minsup,
                        sf,
                        seed ^ (i as u64) << 32 ^ s as u64,
                    )
                })
                .collect();
            (sf, sds)
        })
        .collect()
}

/// Collects `samples` SD values per sample fraction for dt-models.
pub fn dt_sd_sets(
    data: &LabeledTable,
    fractions: &[f64],
    samples: usize,
    seed: u64,
) -> Vec<(f64, Vec<f64>)> {
    let full_model = fit_dt(data);
    fractions
        .iter()
        .enumerate()
        .map(|(i, &sf)| {
            let sds = (0..samples)
                .map(|s| {
                    dt_sample_deviation(data, &full_model, sf, seed ^ (i as u64) << 32 ^ s as u64)
                })
                .collect();
            (sf, sds)
        })
        .collect()
}

/// Wilcoxon significance (the paper's Tables 1–2 row): for each adjacent
/// pair of sample fractions, the significance with which "size `s_{i+1}` is
/// more representative than size `s_i`" is accepted — i.e. SD values at the
/// larger fraction are stochastically *smaller*.
pub fn adjacent_significance(sd_sets: &[(f64, Vec<f64>)]) -> Vec<(f64, f64)> {
    sd_sets
        .windows(2)
        .map(|w| {
            let (sf_small, ref sds_small) = w[0];
            let (_sf_large, ref sds_large) = w[1];
            let r = focus_stats::wilcoxon::rank_sum(
                sds_large,
                sds_small,
                focus_stats::wilcoxon::Alternative::Less,
            );
            (sf_small, r.significance_percent)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_data::assoc::{AssocGen, AssocGenParams};
    use focus_data::classify::{ClassifyFn, ClassifyGen};

    #[test]
    fn lits_sd_decreases_with_sample_fraction() {
        let gen = AssocGen::new(AssocGenParams::small(), 1);
        let data = gen.generate(2000, 2);
        let sets = lits_sd_sets(&data, 0.02, &[0.05, 0.5], 5, 3);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        let small = mean(&sets[0].1);
        let large = mean(&sets[1].1);
        assert!(
            large < small,
            "SD at 50% ({large}) should undercut SD at 5% ({small})"
        );
        // A full sample is a superset-identical dataset, but mined support
        // estimates are exact, so SD at SF = 1.0 is exactly 0.
        let full = lits_sd_sets(&data, 0.02, &[1.0], 1, 3);
        assert_eq!(full[0].1[0], 0.0);
    }

    #[test]
    fn dt_sd_decreases_with_sample_fraction() {
        let data = ClassifyGen::new(ClassifyFn::F2).generate(3000, 5);
        let sets = dt_sd_sets(&data, &[0.05, 0.6], 5, 7);
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            mean(&sets[1].1) < mean(&sets[0].1),
            "dt SD must shrink with sample size: {:?}",
            sets.iter()
                .map(|(sf, v)| (*sf, mean(v)))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn adjacent_significance_detects_improvement() {
        // Construct synthetic SD sets with a clear decrease.
        let sets = vec![
            (0.1, (0..30).map(|i| 1.0 + (i % 7) as f64 * 0.01).collect()),
            (0.2, (0..30).map(|i| 0.5 + (i % 7) as f64 * 0.01).collect()),
        ];
        let sig = adjacent_significance(&sets);
        assert_eq!(sig.len(), 1);
        assert!(sig[0].1 > 99.9, "sig = {}", sig[0].1);
    }

    #[test]
    fn sd_is_deterministic() {
        let gen = AssocGen::new(AssocGenParams::small(), 9);
        let data = gen.generate(1000, 1);
        let m = mine(&data, 0.02);
        let a = lits_sample_deviation(&data, &m, 0.02, 0.3, 5);
        let b = lits_sample_deviation(&data, &m, 0.02, 0.3, 5);
        assert_eq!(a, b);
    }
}
