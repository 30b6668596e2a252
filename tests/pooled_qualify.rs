//! The pooled lits qualification (`focus_mining::qualify_pooled`: one mine
//! of the pool, then one masked walk of the pooled itemsets per
//! replicate) against the pipeline it replaces: every replicate re-mines
//! its two pseudo-datasets and deviates them, through the generic
//! `qualify` and the same permutation split.
//!
//! The observed δ, every null value and the significance must agree bit
//! for bit, sequentially and at 1, 2, 4 and 7 worker threads, over sides
//! of different sizes (two different count thresholds), thresholds on
//! either side of the ratio at which `qualify_pooled` re-mines each
//! replicate instead, a pool with no frequent itemset, tiny inputs where
//! the count floor binds, and a length cap that stops the walk.

use focus::core::prelude::*;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::exec::Parallelism;
use focus::mining::{qualify_pooled, Apriori, AprioriParams};
use focus::stats::BootstrapResult;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const PARS: [Parallelism; 5] = [
    Parallelism::Sequential,
    Parallelism::Threads(1),
    Parallelism::Threads(2),
    Parallelism::Threads(4),
    Parallelism::Threads(7),
];

const FG: [(DiffFn, AggFn); 3] = [
    (DiffFn::Absolute, AggFn::Sum),
    (DiffFn::Absolute, AggFn::Max),
    (DiffFn::Scaled, AggFn::Sum),
];

/// The test-only reference: every replicate re-mines both sides and
/// deviates them.
fn remine_reference(
    d1: &TransactionSet,
    d2: &TransactionSet,
    miner: &Apriori,
    (f, g): (DiffFn, AggFn),
    reps: usize,
    seed: u64,
) -> BootstrapResult {
    let stat = |a: &TransactionSet, b: &TransactionSet| {
        let (ma, mb) = (miner.mine(a), miner.mine(b));
        deviate::<LitsFamily>(&ma, a, &mb, b, f, g, Parallelism::Sequential).value
    };
    qualify(
        d1,
        d2,
        stat(d1, d2),
        reps,
        seed,
        Parallelism::Sequential,
        stat,
    )
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Runs the pooled path at every parallelism and each (f, g) against the
/// reference; returns the f_a/g_sum reference for case-specific checks.
fn assert_pooled_matches(
    d1: &TransactionSet,
    d2: &TransactionSet,
    miner: &Apriori,
    reps: usize,
    seed: u64,
) -> BootstrapResult {
    let mut first = None;
    for fg in FG {
        let want = remine_reference(d1, d2, miner, fg, reps, seed);
        for par in PARS {
            let got = qualify_pooled(d1, d2, miner, fg.0, fg.1, reps, seed, par);
            let what = format!("{fg:?} at {par:?}");
            assert_eq!(
                got.observed.to_bits(),
                want.observed.to_bits(),
                "observed δ, {what}: {} vs {}",
                got.observed,
                want.observed
            );
            assert_eq!(
                bits(&got.null_distribution),
                bits(&want.null_distribution),
                "null distribution, {what}: {:?} vs {:?}",
                got.null_distribution,
                want.null_distribution
            );
            assert_eq!(
                got.significance_percent.to_bits(),
                want.significance_percent.to_bits(),
                "significance, {what}"
            );
        }
        first.get_or_insert(want);
    }
    first.expect("at least one (f, g)")
}

fn random_transactions(n: usize, n_items: u32, density: f64, seed: u64) -> TransactionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = TransactionSet::new(n_items);
    for _ in 0..n {
        data.push(
            (0..n_items)
                .filter(|_| rng.gen::<f64>() < density)
                .collect(),
        );
    }
    data
}

/// Distinct values in a null distribution: a walk that kept or dropped
/// nothing would make every replicate alike.
fn distinct(null: &[f64]) -> usize {
    let mut b = bits(null);
    b.dedup();
    b.len()
}

#[test]
fn unequal_sides_have_different_thresholds() {
    let process = AssocGen::new(AssocGenParams::small(), 3);
    let (d1, d2) = (process.generate(600, 1), process.generate(900, 2));
    let miner = Apriori::new(
        AprioriParams::with_minsup(0.02)
            .max_len(10)
            .min_count_floor(2),
    );
    let (t1, t2) = (miner.params().min_count(600), miner.params().min_count(900));
    assert_eq!((t1, t2), (12, 18));
    let q = assert_pooled_matches(&d1, &d2, &miner, 15, 21);
    assert!(miner.mine(&d1).len() > 50, "a non-trivial model");
    assert!(distinct(&q.null_distribution) > 10, "{q:?}");
    assert!(q.observed > 0.0);
}

#[test]
fn skewed_sides_match_on_both_sides_of_the_ratio_cap() {
    // Thresholds exactly twice apart mine the pool once; five times apart,
    // every replicate re-mines. The result is the reference's either way.
    let process = AssocGen::new(AssocGenParams::small(), 4);
    let miner = Apriori::new(
        AprioriParams::with_minsup(0.02)
            .max_len(10)
            .min_count_floor(2),
    );
    for (n1, n2, (t1, t2)) in [(300, 600, (6, 12)), (150, 750, (3, 15))] {
        let (d1, d2) = (process.generate(n1, 7), process.generate(n2, 8));
        assert_eq!(
            (miner.params().min_count(n1), miner.params().min_count(n2)),
            (t1, t2)
        );
        let q = assert_pooled_matches(&d1, &d2, &miner, 11, 5);
        assert!(distinct(&q.null_distribution) > 5, "{q:?}");
    }
}

#[test]
fn pool_without_a_frequent_itemset() {
    let (d1, d2) = (
        random_transactions(40, 10, 0.3, 1),
        random_transactions(30, 10, 0.3, 2),
    );
    let miner = Apriori::new(AprioriParams::with_minsup(0.9));
    assert!(miner.mine(&d1.concat(&d2)).is_empty());
    let q = assert_pooled_matches(&d1, &d2, &miner, 9, 4);
    assert_eq!(q.observed, 0.0);
    assert!(q.null_distribution.iter().all(|&v| v == 0.0));
}

#[test]
fn count_floor_binds_on_tiny_inputs() {
    let (d1, d2) = (
        random_transactions(12, 8, 0.45, 5),
        random_transactions(19, 8, 0.4, 6),
    );
    // minsup · n is below one row on both sides, so the floor decides.
    let miner = Apriori::new(
        AprioriParams::with_minsup(0.01)
            .max_len(10)
            .min_count_floor(3),
    );
    assert_eq!(miner.params().min_count(12), 3);
    assert_eq!(miner.params().min_count(19), 3);
    let q = assert_pooled_matches(&d1, &d2, &miner, 20, 8);
    assert!(distinct(&q.null_distribution) > 5, "{q:?}");
}

#[test]
fn length_cap_stops_the_walk() {
    // Dense rows: with no cap, itemsets of five and more items are
    // frequent; the cap keeps pairs only, on both paths.
    let (d1, d2) = (
        random_transactions(80, 9, 0.7, 9),
        random_transactions(50, 9, 0.6, 10),
    );
    let uncapped = Apriori::new(AprioriParams::with_minsup(0.2));
    assert!(uncapped.mine(&d1).itemsets().iter().any(|x| x.len() >= 5));
    let capped = Apriori::new(AprioriParams::with_minsup(0.2).max_len(2));
    let q = assert_pooled_matches(&d1, &d2, &capped, 12, 13);
    assert!(distinct(&q.null_distribution) > 5, "{q:?}");
}
