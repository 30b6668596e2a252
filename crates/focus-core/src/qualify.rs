//! The qualification procedure (Section 3.4): is a deviation statistically
//! significant?
//!
//! "A deviation of 0.01 may not be uncommon between two datasets generated
//! by the same process." To decide, the paper bootstraps the distribution
//! `F` of deviation values under the null hypothesis that both datasets come
//! from one process: pool the datasets, repeatedly draw two pseudo-datasets
//! of the original sizes (with replacement), run the full model-induction +
//! deviation pipeline on each pair, and report where the observed deviation
//! falls in that distribution (the "%sig" columns of Figures 13 and 14).
//!
//! The seeded per-replicate fan-out lives in `focus-stats`
//! ([`null_distribution`]); this module supplies the resampling closure for
//! each dataset shape, drawing *indices* so rows are never cloned.
//!
//! Each bootstrap replicate runs the full model-induction pipeline, so the
//! fan-out over replicates dominates qualification cost. Every function here
//! therefore takes (or defaults) a [`Parallelism`]: replicate `i` draws from
//! its own seeded generator, making the null distribution a pure function
//! of `(datasets, reps, seed)` — bit-identical for any thread count.

use crate::data::{resample_indices, LabeledTable, TransactionSet};
use focus_exec::Parallelism;
use focus_stats::bootstrap::{null_distribution, BootstrapResult};

/// Qualifies an observed deviation between two transaction datasets.
///
/// `stat` must be the complete pipeline "induce a model from each dataset,
/// compute their deviation" — e.g. mine frequent itemsets at the original
/// minimum support and evaluate `δ(f_a, g_sum)`.
///
/// Returns the bootstrap null distribution and the significance percentage.
pub fn qualify_transactions<F>(
    d1: &TransactionSet,
    d2: &TransactionSet,
    observed: f64,
    reps: usize,
    seed: u64,
    stat: F,
) -> BootstrapResult
where
    F: Fn(&TransactionSet, &TransactionSet) -> f64 + Sync,
{
    qualify_transactions_par(d1, d2, observed, reps, seed, Parallelism::Global, stat)
}

/// [`qualify_transactions`] with an explicit [`Parallelism`] for the
/// per-replicate fan-out.
pub fn qualify_transactions_par<F>(
    d1: &TransactionSet,
    d2: &TransactionSet,
    observed: f64,
    reps: usize,
    seed: u64,
    par: Parallelism,
    stat: F,
) -> BootstrapResult
where
    F: Fn(&TransactionSet, &TransactionSet) -> f64 + Sync,
{
    assert!(
        !d1.is_empty() && !d2.is_empty(),
        "datasets must be non-empty"
    );
    let pool = d1.concat(d2);
    let null = null_distribution(reps, seed, par, |rng| {
        let i1 = resample_indices(pool.len(), d1.len(), rng);
        let i2 = resample_indices(pool.len(), d2.len(), rng);
        stat(&pool.subset(&i1), &pool.subset(&i2))
    });
    BootstrapResult::new(observed, null)
}

/// Qualifies an observed deviation between two labelled tables, with the
/// replicates fanned out over `par` worker threads. Mirrors
/// [`qualify_transactions`] for the dt-model pipeline (build a tree on each
/// pseudo-dataset, compute the deviation).
pub fn qualify_tables<F>(
    d1: &LabeledTable,
    d2: &LabeledTable,
    observed: f64,
    reps: usize,
    seed: u64,
    par: Parallelism,
    stat: F,
) -> BootstrapResult
where
    F: Fn(&LabeledTable, &LabeledTable) -> f64 + Sync,
{
    assert!(
        !d1.is_empty() && !d2.is_empty(),
        "datasets must be non-empty"
    );
    let pool = d1.concat(d2);
    let null = null_distribution(reps, seed, par, |rng| {
        let i1 = resample_indices(pool.len(), d1.len(), rng);
        let i2 = resample_indices(pool.len(), d2.len(), rng);
        stat(&pool.subset(&i1), &pool.subset(&i2))
    });
    BootstrapResult::new(observed, null)
}

/// Bootstrap calibration of the chi-squared statistic (Section 5.2.2):
/// estimates the exact null distribution of `X²` ("distribution of X² values
/// when the new dataset fits the old model") by resampling pseudo-`D2`s
/// of size `n2` from the old dataset `d1` — datasets that fit the old
/// model by construction — then reports the p-value of the observed
/// statistic. The replicates fan out over `par` worker threads.
///
/// `stat` evaluates the statistic of one pseudo-dataset against the fixed
/// old model.
pub fn qualify_chi_squared<F>(
    d1: &LabeledTable,
    n2: usize,
    observed: f64,
    reps: usize,
    seed: u64,
    par: Parallelism,
    stat: F,
) -> BootstrapResult
where
    F: Fn(&LabeledTable) -> f64 + Sync,
{
    assert!(!d1.is_empty(), "dataset must be non-empty");
    assert!(n2 > 0, "target dataset size must be positive");
    let null = null_distribution(reps, seed, par, |rng| {
        stat(&d1.subset(&resample_indices(d1.len(), n2, rng)))
    });
    BootstrapResult::new(observed, null)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Schema, Value};
    use crate::deviation::deviate;
    use crate::diff::{AggFn, DiffFn};
    use crate::family::DtFamily;
    use crate::model::induce_dt_measures;
    use crate::monitor::chi_squared_statistic;
    use crate::region::BoxBuilder;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn txn_dataset(seed: u64, n: usize, p_item0: f64) -> TransactionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = TransactionSet::new(4);
        for _ in 0..n {
            let mut t = Vec::new();
            if rng.gen::<f64>() < p_item0 {
                t.push(0);
            }
            if rng.gen::<f64>() < 0.3 {
                t.push(1);
            }
            ts.push(t);
        }
        ts
    }

    /// A toy deviation statistic: absolute difference in item-0 frequency.
    fn item0_stat(a: &TransactionSet, b: &TransactionSet) -> f64 {
        let fa = a.iter().filter(|t| t.contains(&0)).count() as f64 / a.len() as f64;
        let fb = b.iter().filter(|t| t.contains(&0)).count() as f64 / b.len() as f64;
        (fa - fb).abs()
    }

    #[test]
    fn same_process_transactions_not_significant() {
        let d1 = txn_dataset(1, 300, 0.5);
        let d2 = txn_dataset(2, 300, 0.5);
        let obs = item0_stat(&d1, &d2);
        let r = qualify_transactions(&d1, &d2, obs, 99, 7, item0_stat);
        assert!(
            r.significance_percent < 99.0,
            "sig = {}",
            r.significance_percent
        );
    }

    #[test]
    fn different_process_transactions_significant() {
        let d1 = txn_dataset(1, 300, 0.5);
        let d2 = txn_dataset(2, 300, 0.9);
        let obs = item0_stat(&d1, &d2);
        let r = qualify_transactions(&d1, &d2, obs, 99, 7, item0_stat);
        assert!(
            r.significance_percent >= 99.0,
            "sig = {}",
            r.significance_percent
        );
        assert!(r.is_significant(0.05));
    }

    fn labeled_dataset(seed: u64, n: usize, boundary: f64) -> LabeledTable {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = LabeledTable::new(schema, 2);
        for _ in 0..n {
            let x: f64 = rng.gen::<f64>() * 100.0;
            t.push_row(&[Value::Num(x)], u32::from(x < boundary));
        }
        t
    }

    /// Deviation pipeline for tables: fixed two-leaf stumps at x = 50.
    fn stump_deviation(a: &LabeledTable, b: &LabeledTable) -> f64 {
        let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
        let schema = Arc::clone(a.table.schema());
        let leaves = || {
            vec![
                BoxBuilder::new(&schema).lt("x", 50.0).build(),
                BoxBuilder::new(&schema).ge("x", 50.0).build(),
            ]
        };
        let m1 = induce_dt_measures(leaves(), a);
        let m2 = induce_dt_measures(leaves(), b);
        deviate::<DtFamily>(&m1, a, &m2, b, f, g, par).value
    }

    #[test]
    fn table_qualification_detects_boundary_shift() {
        let d1 = labeled_dataset(1, 400, 50.0);
        let d_same = labeled_dataset(2, 400, 50.0);
        let d_shift = labeled_dataset(3, 400, 75.0);
        let par = Parallelism::Global;

        let obs_same = stump_deviation(&d1, &d_same);
        let r_same = qualify_tables(&d1, &d_same, obs_same, 49, 11, par, stump_deviation);
        assert!(
            r_same.significance_percent < 99.0,
            "same-process sig = {}",
            r_same.significance_percent
        );

        let obs_shift = stump_deviation(&d1, &d_shift);
        let r_shift = qualify_tables(&d1, &d_shift, obs_shift, 49, 11, par, stump_deviation);
        assert!(
            r_shift.significance_percent >= 95.0,
            "shifted sig = {}",
            r_shift.significance_percent
        );
    }

    #[test]
    fn chi_squared_bootstrap_calibration() {
        let d1 = labeled_dataset(5, 500, 50.0);
        let schema = Arc::clone(d1.table.schema());
        let model = induce_dt_measures(
            vec![
                BoxBuilder::new(&schema).lt("x", 50.0).build(),
                BoxBuilder::new(&schema).ge("x", 50.0).build(),
            ],
            &d1,
        );
        // A dataset that fits the old model: X² should be unremarkable.
        let d_fit = labeled_dataset(6, 300, 50.0);
        let obs_fit = chi_squared_statistic(&model, &d_fit, 0.5, Parallelism::Global);
        let r = qualify_chi_squared(&d1, 300, obs_fit, 99, 13, Parallelism::Global, |d| {
            chi_squared_statistic(&model, d, 0.5, Parallelism::Global)
        });
        assert!(
            r.significance_percent < 99.0,
            "fit sig = {}",
            r.significance_percent
        );
        // A drifted dataset: X² should land in the extreme tail.
        let d_drift = labeled_dataset(7, 300, 80.0);
        let obs_drift = chi_squared_statistic(&model, &d_drift, 0.5, Parallelism::Global);
        let r = qualify_chi_squared(&d1, 300, obs_drift, 99, 13, Parallelism::Global, |d| {
            chi_squared_statistic(&model, d, 0.5, Parallelism::Global)
        });
        assert!(
            r.significance_percent >= 99.0,
            "drift sig = {}",
            r.significance_percent
        );
    }

    #[test]
    fn qualification_is_deterministic() {
        let d1 = txn_dataset(1, 100, 0.5);
        let d2 = txn_dataset(2, 100, 0.6);
        let obs = item0_stat(&d1, &d2);
        let a = qualify_transactions(&d1, &d2, obs, 20, 99, item0_stat);
        let b = qualify_transactions(&d1, &d2, obs, 20, 99, item0_stat);
        assert_eq!(a.null_distribution, b.null_distribution);
    }
}
