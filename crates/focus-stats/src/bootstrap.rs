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
//! [`null_distribution`] is the one seeded per-replicate fan-out: callers
//! supply only the resampling closure for their dataset shape (focus-core's
//! `qualify` and `qualify_chi_squared`), and
//! [`BootstrapResult::new`] situates the observed value in the result.

use focus_exec::{derive_seed, map_indices, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;

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
    /// Situates `observed` in the bootstrap `null`: computes its
    /// significance and sorts the null ascending.
    pub fn new(observed: f64, mut null: Vec<f64>) -> Self {
        let significance_percent = significance_percent(observed, &null);
        null.sort_by(f64::total_cmp);
        Self {
            observed,
            null_distribution: null,
            significance_percent,
        }
    }

    /// True if the observed deviation is significant at level `alpha`
    /// (e.g. `0.05` for 95%).
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.significance_percent >= 100.0 * (1.0 - alpha)
    }
}

/// Evaluates `reps` bootstrap replicates of a statistic, fanned out over
/// `par` worker threads, and returns them in replicate order.
///
/// `replicate` draws its resample from the generator it is given and
/// evaluates the statistic on it. Replicate `i`'s generator is an
/// `StdRng` seeded from `derive_seed(seed, i)`, so its draws depend only
/// on `(seed, i)` — never on the thread count — and the returned vector
/// is bit-identical whether it was computed on one thread or many.
///
/// # Panics
///
/// If a replicate returns NaN, naming the replicate and its derived seed.
pub fn null_distribution(
    reps: usize,
    seed: u64,
    par: Parallelism,
    replicate: impl Fn(&mut StdRng) -> f64 + Sync,
) -> Vec<f64> {
    let null = map_indices(par, reps, |rep| {
        replicate(&mut StdRng::seed_from_u64(derive_seed(seed, rep as u64)))
    });
    // `map_indices` returns replicates in index order, so a NaN's position
    // *is* the replicate that produced it.
    if let Some(rep) = null.iter().position(|v| v.is_nan()) {
        panic!(
            "bootstrap replicate {rep} (seed {}) produced a NaN statistic; \
             the statistic must return finite values",
            derive_seed(seed, rep as u64)
        );
    }
    null
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::mean;
    use rand::Rng;

    /// Absolute mean difference of two with-replacement resamples of
    /// sizes `n1` and `n2` from `pool`.
    fn mean_gap(pool: &[f64], n1: usize, n2: usize, rng: &mut StdRng) -> f64 {
        let mut draw =
            |n: usize| -> Vec<f64> { (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect() };
        let (a, b) = (draw(n1), draw(n2));
        (mean(&a) - mean(&b)).abs()
    }

    #[test]
    fn null_distribution_is_deterministic_per_seed() {
        let pool: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let run = |seed| {
            null_distribution(50, seed, Parallelism::Global, |rng| {
                mean_gap(&pool, 30, 30, rng)
            })
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn null_distribution_is_thread_count_invariant() {
        // The per-replicate seeding makes the null distribution (in
        // replicate order) bit-identical for every worker-thread count.
        let pool: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let run = |par| null_distribution(33, 9, par, |rng| mean_gap(&pool, 40, 25, rng));
        let seq = run(Parallelism::Sequential);
        for t in [2usize, 4, 7] {
            assert_eq!(seq, run(Parallelism::Threads(t)), "threads = {t}");
        }
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
        let null = null_distribution(64, 3, Parallelism::Global, |rng| mean_gap(&d, 50, 50, rng));
        let r = BootstrapResult::new(0.0, null);
        assert!(r.null_distribution.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(r.null_distribution.len(), 64);
    }

    #[test]
    #[should_panic(expected = "bootstrap replicate 3 (seed ")]
    fn nan_statistic_names_the_offending_replicate() {
        null_distribution(8, 5, Parallelism::Sequential, |rng| {
            // Replicate 3's seed is the only thing that distinguishes it.
            let first: u64 = rng.gen();
            let mut r3 = StdRng::seed_from_u64(derive_seed(5, 3));
            if first == r3.gen::<u64>() {
                f64::NAN
            } else {
                0.0
            }
        });
    }
}
