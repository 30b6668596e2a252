//! The qualification procedure (Section 3.4): is a deviation statistically
//! significant?
//!
//! "A deviation of 0.01 may not be uncommon between two datasets generated
//! by the same process." To decide, the paper estimates the distribution
//! `F` of deviation values under the null hypothesis that both datasets
//! come from one process: pool the datasets, repeatedly split the pool
//! into two pseudo-datasets of the original sizes, run the full
//! model-induction + deviation pipeline on each pair, and report where the
//! observed deviation falls in that distribution (the "%sig" columns of
//! Figures 13 and 14).
//!
//! **A permutation split, not the paper's draw with replacement.** Each
//! replicate deals the pool's rows into the two pseudo-datasets without
//! replacement ([`permutation_split`]): the permutation test, the exact
//! test of "one process" (Efron & Tibshirani, *An Introduction to the
//! Bootstrap*, 1993, ch. 15). A draw with replacement duplicates rows, and
//! on small lits inputs a duplicated row pushes every subset of itself
//! over the mining count floor, so one replicate could mine without end.
//! A split also partitions the pool, which lets the lits path mine the
//! pool once and count every replicate from it (`focus-mining`'s
//! `pooled` module).
//!
//! The seeded per-replicate fan-out lives in `focus-stats`
//! ([`null_distribution`]); [`split_null`] draws one split per replicate
//! through it and hands the statistic the two sides' *row indices*, so
//! rows are never cloned unless the statistic asks for them. [`qualify`]
//! is that engine over any [`Pool`] dataset.
//!
//! Each replicate runs the full model-induction pipeline, so the fan-out
//! over replicates dominates qualification cost. Every function here
//! therefore takes (or defaults) a [`Parallelism`]: replicate `i` draws from
//! its own seeded generator, making the null distribution a pure function
//! of `(datasets, reps, seed)` — bit-identical for any thread count.

use crate::data::{resample_indices, LabeledTable, TransactionSet};
use focus_exec::Parallelism;
use focus_stats::bootstrap::null_distribution;
// Re-exported so a caller of `split_null` (focus-mining's pooled path)
// can build the result without depending on focus-stats itself.
pub use focus_stats::bootstrap::BootstrapResult;
use rand::Rng;

/// A dataset the qualification procedure can pool and split: the
/// transaction sets of lits-models and the labelled tables of dt-models.
pub trait Pool: Sized {
    /// Number of rows.
    fn len(&self) -> usize;
    /// Whether there are no rows.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// `self`'s rows followed by `other`'s.
    fn concat(&self, other: &Self) -> Self;
    /// The rows at `indices`, in that order.
    fn subset(&self, indices: &[usize]) -> Self;
}

macro_rules! impl_pool {
    ($($t:ty),*) => {$(
        impl Pool for $t {
            fn len(&self) -> usize { self.len() }
            fn concat(&self, other: &Self) -> Self { self.concat(other) }
            fn subset(&self, indices: &[usize]) -> Self { self.subset(indices) }
        }
    )*};
}
impl_pool!(TransactionSet, LabeledTable);

/// One replicate's split of an `n`-row pool: `n1` rows drawn without
/// replacement from `rng` (a partial Fisher–Yates shuffle), and the other
/// `n − n1`. Returns the drawn rows and their complement, each ascending.
///
/// Every permutation replicate draws through this one function — the
/// generic [`qualify`] and `focus-mining`'s pooled lits path alike — so
/// replicate `i` gets the same split from both.
///
/// # Panics
///
/// If `n1 > n`.
pub fn permutation_split<R: Rng + ?Sized>(
    n: usize,
    n1: usize,
    rng: &mut R,
) -> (Vec<usize>, Vec<usize>) {
    assert!(n1 <= n, "cannot draw {n1} of {n} rows without replacement");
    let mut order: Vec<usize> = (0..n).collect();
    for i in 0..n1 {
        order.swap(i, rng.gen_range(i..n));
    }
    let mut drawn = vec![false; n];
    for &r in &order[..n1] {
        drawn[r] = true;
    }
    (0..n).partition(|&r| drawn[r])
}

/// The permutation null distribution of a two-sample statistic over a
/// pool of `n1 + n2` rows (the first `n1` from `D1`), with the replicates
/// fanned out over `par` worker threads.
///
/// Replicate `i` draws one [`permutation_split`] of the pool from its own
/// generator ([`null_distribution`]) and evaluates `stat` on the two
/// sides' row indices: `n1` rows, then the other `n2`. Returns the
/// statistic per replicate, in replicate order.
pub fn split_null<F>(
    n1: usize,
    n2: usize,
    reps: usize,
    seed: u64,
    par: Parallelism,
    stat: F,
) -> Vec<f64>
where
    F: Fn(&[usize], &[usize]) -> f64 + Sync,
{
    null_distribution(reps, seed, par, |rng| {
        let (i1, i2) = permutation_split(n1 + n2, n1, rng);
        stat(&i1, &i2)
    })
}

/// Qualifies an observed deviation between two datasets, with the
/// replicates fanned out over `par` worker threads.
///
/// `stat` must be the complete pipeline "induce a model from each dataset,
/// compute their deviation" — e.g. mine frequent itemsets at the original
/// minimum support and evaluate `δ(f_a, g_sum)`, or build a tree on each
/// pseudo-dataset. Each replicate splits the pooled rows
/// ([`split_null`]) and copies the two sides out of the pool, each in
/// ascending pool order.
///
/// Returns the null distribution and the significance percentage.
pub fn qualify<D, F>(
    d1: &D,
    d2: &D,
    observed: f64,
    reps: usize,
    seed: u64,
    par: Parallelism,
    stat: F,
) -> BootstrapResult
where
    D: Pool + Sync,
    F: Fn(&D, &D) -> f64 + Sync,
{
    assert!(
        !d1.is_empty() && !d2.is_empty(),
        "datasets must be non-empty"
    );
    let pool = d1.concat(d2);
    let null = split_null(d1.len(), d2.len(), reps, seed, par, |i1, i2| {
        stat(&pool.subset(i1), &pool.subset(i2))
    });
    BootstrapResult::new(observed, null)
}

/// [`qualify`] of two transaction datasets on [`Parallelism::Global`].
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
    qualify(d1, d2, observed, reps, seed, Parallelism::Global, stat)
}

/// Bootstrap calibration of the chi-squared statistic (Section 5.2.2):
/// estimates the exact null distribution of `X²` ("distribution of X² values
/// when the new dataset fits the old model") by resampling pseudo-`D2`s
/// of size `n2` from the old dataset `d1` — datasets that fit the old
/// model by construction — then reports the p-value of the observed
/// statistic. The replicates fan out over `par` worker threads.
///
/// This one draw stays a bootstrap, with replacement: there is no second
/// sample to pool, only the old dataset standing in for its process, and
/// a pseudo-`D2` must vary like a fresh sample of `n2` rows would, even
/// when `n2` approaches `d1.len()` (a split of `d1` would then leave no
/// variation at all). `stat` scores each resample against the fixed old
/// model, so no model is induced from duplicated rows.
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
        let r = qualify(&d1, &d2, obs, 99, 7, Parallelism::Global, item0_stat);
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
        let r = qualify(&d1, &d2, obs, 99, 7, Parallelism::Global, item0_stat);
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
        let r_same = qualify(&d1, &d_same, obs_same, 49, 11, par, stump_deviation);
        // Same process: not significant (16 of 49 replicates lie below).
        assert_eq!(r_same.significance_percent, 32.6530612244898);

        let obs_shift = stump_deviation(&d1, &d_shift);
        let r_shift = qualify(&d1, &d_shift, obs_shift, 49, 11, par, stump_deviation);
        assert_eq!(r_shift.significance_percent, 100.0);
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
    fn permutation_split_partitions_the_pool() {
        let mut rng = StdRng::seed_from_u64(3);
        for (n, n1) in [(0, 0), (1, 0), (1, 1), (10, 3), (64, 64), (100, 37)] {
            let (a, b) = permutation_split(n, n1, &mut rng);
            assert_eq!((a.len(), b.len()), (n1, n - n1));
            assert!(a.windows(2).all(|w| w[0] < w[1]), "ascending");
            assert!(b.windows(2).all(|w| w[0] < w[1]), "ascending");
            let mut all = [a, b].concat();
            all.sort_unstable();
            assert_eq!(all, (0..n).collect::<Vec<_>>(), "a partition");
        }
        // Every row is equally likely on the drawn side: 3 of 10.
        let mut drawn = [0u32; 10];
        for _ in 0..4000 {
            for r in permutation_split(10, 3, &mut rng).0 {
                drawn[r] += 1;
            }
        }
        assert!(
            drawn.iter().all(|&c| (1080..1320).contains(&c)),
            "{drawn:?}"
        );
    }

    #[test]
    fn qualification_is_deterministic() {
        let d1 = txn_dataset(1, 100, 0.5);
        let d2 = txn_dataset(2, 100, 0.6);
        let obs = item0_stat(&d1, &d2);
        let a = qualify(&d1, &d2, obs, 20, 99, Parallelism::Global, item0_stat);
        let b = qualify(&d1, &d2, obs, 20, 99, Parallelism::Global, item0_stat);
        assert_eq!(a.null_distribution, b.null_distribution);
    }
}
