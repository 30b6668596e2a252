//! Bootstrap machinery for the FOCUS qualification procedure (Section 3.4).
//!
//! The question the paper asks is: *is an observed deviation `d` between two
//! datasets large enough that they are unlikely to come from the same
//! generating process?* The answer is obtained by bootstrapping: pool the two
//! datasets, repeatedly resample two pseudo-datasets of the original sizes
//! from the pool (with replacement), recompute the deviation for each
//! replicate, and read off where the observed value falls in that null
//! distribution. The same engine estimates the exact null distribution of
//! the chi-squared statistic when the textbook applicability conditions fail
//! (Section 5.2.2).
//!
//! The engine is generic over the element type and the statistic, so the
//! identical code path serves lits-models (elements = transactions),
//! dt-models (elements = labelled tuples) and raw numeric statistics.

use focus_exec::{derive_seed, map_indices, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of a bootstrap significance computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapResult {
    /// The observed statistic (deviation) between the two real datasets.
    pub observed: f64,
    /// The bootstrap null distribution (one value per replicate), sorted
    /// ascending.
    pub null_distribution: Vec<f64>,
    /// Significance as a percentage: `100 · (fraction of null values that are
    /// strictly below the observed value)`. A value of 99 means the observed
    /// deviation exceeds 99% of deviations expected between two datasets
    /// drawn from the same process — the paper's "%sig" columns.
    pub significance_percent: f64,
}

impl BootstrapResult {
    /// True if the observed deviation is significant at level `alpha`
    /// (e.g. `0.05` for 95%).
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.significance_percent >= 100.0 * (1.0 - alpha)
    }
}

/// Draws `reps` bootstrap replicates of a two-sample statistic under the
/// null hypothesis that both samples come from the pooled distribution,
/// with the replicates fanned out over `par` worker threads.
///
/// For each replicate, two pseudo-samples of sizes `n1` and `n2` are drawn
/// with replacement from `pool`, and `stat` is evaluated on them.
///
/// Replicate `i` seeds its own `StdRng` from `derive_seed(seed, i)`, so
/// replicate `i`'s random draws depend only on `(seed, i)` — never on the
/// thread count — and the returned vector (in replicate order) is
/// bit-identical whether it was computed on one thread or many.
pub fn bootstrap_two_sample<T, F>(
    pool: &[T],
    n1: usize,
    n2: usize,
    reps: usize,
    seed: u64,
    par: Parallelism,
    stat: F,
) -> Vec<f64>
where
    T: Clone + Sync,
    F: Fn(&[T], &[T]) -> f64 + Sync,
{
    assert!(!pool.is_empty(), "bootstrap pool must be non-empty");
    assert!(n1 > 0 && n2 > 0, "resample sizes must be positive");
    map_indices(par, reps, |rep| {
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, rep as u64));
        let s1: Vec<T> = (0..n1)
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect();
        let s2: Vec<T> = (0..n2)
            .map(|_| pool[rng.gen_range(0..pool.len())].clone())
            .collect();
        stat(&s1, &s2)
    })
}

/// Computes the paper's "%sig" number: the percentage of null values that
/// fall strictly below the observed statistic.
///
/// `null` need not be sorted.
pub fn significance_percent(observed: f64, null: &[f64]) -> f64 {
    if null.is_empty() {
        return 0.0;
    }
    let below = null.iter().filter(|&&v| v < observed).count();
    100.0 * below as f64 / null.len() as f64
}

/// End-to-end qualification: pools the two datasets, bootstraps the null
/// distribution of `stat`, and situates the observed value.
///
/// This is the direct implementation of Section 3.4: `stat` should be the
/// full model-induction + deviation pipeline (e.g. "mine frequent itemsets
/// from both pseudo-datasets and compute `δ(f_a, g_sum)`").
pub fn qualify<T, F>(
    d1: &[T],
    d2: &[T],
    observed: f64,
    reps: usize,
    seed: u64,
    stat: F,
) -> BootstrapResult
where
    T: Clone + Sync,
    F: Fn(&[T], &[T]) -> f64 + Sync,
{
    let pool: Vec<T> = d1.iter().cloned().chain(d2.iter().cloned()).collect();
    let mut null = bootstrap_two_sample(
        &pool,
        d1.len(),
        d2.len(),
        reps,
        seed,
        Parallelism::Global,
        stat,
    );
    let significance = significance_percent(observed, &null);
    null.sort_by(|a, b| a.partial_cmp(b).expect("NaN in bootstrap statistic"));
    BootstrapResult {
        observed,
        null_distribution: null,
        significance_percent: significance,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::mean;

    #[test]
    fn null_distribution_is_deterministic_per_seed() {
        let pool: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let stat = |a: &[f64], b: &[f64]| (mean(a) - mean(b)).abs();
        let r1 = bootstrap_two_sample(&pool, 30, 30, 50, 1, Parallelism::Global, stat);
        let r2 = bootstrap_two_sample(&pool, 30, 30, 50, 1, Parallelism::Global, stat);
        let r3 = bootstrap_two_sample(&pool, 30, 30, 50, 2, Parallelism::Global, stat);
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
    }

    #[test]
    fn null_distribution_is_thread_count_invariant() {
        // The per-replicate seeding makes the null distribution (in
        // replicate order) bit-identical for every worker-thread count.
        let pool: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let stat = |a: &[f64], b: &[f64]| (mean(a) - mean(b)).abs();
        let seq = bootstrap_two_sample(&pool, 40, 25, 33, 9, Parallelism::Sequential, stat);
        for t in [2usize, 4, 7] {
            let par = bootstrap_two_sample(&pool, 40, 25, 33, 9, Parallelism::Threads(t), stat);
            assert_eq!(seq, par, "threads = {t}");
        }
    }

    #[test]
    fn same_process_deviation_is_not_significant() {
        // Both datasets drawn from the same uniform grid: the observed mean
        // difference should be unremarkable under the bootstrap null.
        let d1: Vec<f64> = (0..200).map(|i| (i % 20) as f64).collect();
        let d2: Vec<f64> = (0..200).map(|i| ((i + 7) % 20) as f64).collect();
        let stat = |a: &[f64], b: &[f64]| (mean(a) - mean(b)).abs();
        let observed = stat(&d1, &d2);
        let r = qualify(&d1, &d2, observed, 199, 42, stat);
        assert!(!r.is_significant(0.05), "sig = {}", r.significance_percent);
    }

    #[test]
    fn shifted_process_is_significant() {
        let d1: Vec<f64> = (0..200).map(|i| (i % 20) as f64).collect();
        let d2: Vec<f64> = (0..200).map(|i| (i % 20) as f64 + 25.0).collect();
        let stat = |a: &[f64], b: &[f64]| (mean(a) - mean(b)).abs();
        let observed = stat(&d1, &d2);
        let r = qualify(&d1, &d2, observed, 199, 42, stat);
        assert!(r.is_significant(0.01), "sig = {}", r.significance_percent);
        assert_eq!(r.significance_percent, 100.0);
    }

    #[test]
    fn significance_percent_counts_strictly_below() {
        let null = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(significance_percent(2.5, &null), 50.0);
        assert_eq!(significance_percent(0.0, &null), 0.0);
        assert_eq!(significance_percent(10.0, &null), 100.0);
        // Ties are not counted as "below".
        assert_eq!(significance_percent(3.0, &null), 50.0);
    }

    #[test]
    fn null_distribution_is_sorted_in_result() {
        let d: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let stat = |a: &[f64], b: &[f64]| mean(a) - mean(b);
        let r = qualify(&d, &d, 0.0, 64, 3, stat);
        assert!(r.null_distribution.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.null_distribution.len(), 64);
    }

    #[test]
    #[should_panic(expected = "pool must be non-empty")]
    fn empty_pool_panics() {
        bootstrap_two_sample::<f64, _>(&[], 1, 1, 1, 0, Parallelism::Global, |_, _| 0.0);
    }
}
