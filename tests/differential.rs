//! Cross-implementation differential testing of support counting.
//!
//! The workspace counts how many transactions contain an itemset in four
//! independent ways:
//!
//! 1. **naive subset counting** — the textbook double loop, written out
//!    here from scratch so it shares no code with the library;
//! 2. the **bitmap reference scan** ([`count_itemsets`]) — one membership
//!    bitmap per transaction, one subset test per itemset;
//! 3. the counting engine's **horizontal arm** — a budget-0
//!    [`CountSource`], which walks each transaction along the workload's
//!    prefixes;
//! 4. the counting engine's **vertical arm** — an index-backed
//!    [`CountSource`], which counts by popcounts of ANDed per-item
//!    transaction bitsets in prefix-sharing batches.
//!
//! Each has a different traversal order and data-structure shape, so a
//! bug in one of them (walk pruning, bitmap containment, bitset
//! intersection, run grouping) is unlikely to be mirrored by the others.
//! The first property demands four-way agreement on the mined itemsets of
//! proptest-generated transaction sets, at every itemset length, and pins
//! the miner's recorded supports to the naive counts. The second demands
//! that the miner produces the identical model whichever arm counts its
//! levels. The third pins the cost-model dispatch: whatever arm a
//! default-budget source picks, its counts equal both forced arms. The
//! fourth checks Apriori's level-2 pair pass
//! ([`CountSource::frequent_pairs`]) against every pair counted through
//! both forced arms and the bitmap reference.

use focus::core::prelude::*;
use focus::exec::Parallelism;
use focus::mining::{Apriori, AprioriParams};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Naive reference: for each itemset, scan every transaction and test
/// subset inclusion by merge-walking the two sorted item lists.
fn naive_counts(data: &TransactionSet, itemsets: &[Itemset]) -> Vec<u64> {
    fn is_subset(sub: &[u32], sup: &[u32]) -> bool {
        let mut it = sup.iter();
        sub.iter().all(|x| it.any(|y| y == x))
    }
    itemsets
        .iter()
        .map(|s| data.iter().filter(|t| is_subset(s.items(), t)).count() as u64)
        .collect()
}

/// A random transaction dataset, deterministic in its parameters.
fn random_transactions(seed: u64, n: usize, n_items: u32, density: f64) -> TransactionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = TransactionSet::new(n_items);
    for _ in 0..n {
        let t: Vec<u32> = (0..n_items)
            .filter(|_| rng.gen::<f64>() < density)
            .collect();
        data.push(t);
    }
    data
}

/// Checks the pair pass of a forced-horizontal source against all C(f, 2)
/// pairs of the frequent items (count ≥ `min_count`), counted through the
/// forced-horizontal arm, the forced-vertical arm and the bitmap reference
/// and filtered by `min_count`. Returns the frequent pairs.
fn check_frequent_pairs(data: &TransactionSet, min_count: u64) -> Vec<(u32, u32, u64)> {
    let singletons: Vec<Itemset> = (0..data.n_items()).map(|i| Itemset::new(vec![i])).collect();
    let items: Vec<u32> = singletons
        .iter()
        .zip(count_itemsets(data, &singletons, Parallelism::Global))
        .filter(|&(_, c)| c >= min_count)
        .map(|(s, _)| s.items()[0])
        .collect();
    let pairs: Vec<Itemset> = items
        .iter()
        .enumerate()
        .flat_map(|(i, &a)| {
            items[i + 1..]
                .iter()
                .map(move |&b| Itemset::new(vec![a, b]))
        })
        .collect();
    let frequent = |counts: Vec<u64>| -> Vec<(u32, u32, u64)> {
        pairs
            .iter()
            .zip(counts)
            .filter(|&(_, c)| c >= min_count)
            .map(|(s, c)| (s.items()[0], s.items()[1], c))
            .collect()
    };
    let horizontal = CountSource::borrowed(data).with_index_budget(0);
    let vertical = CountSource::from_index(VerticalIndex::build(data));
    let got = horizontal
        .frequent_pairs(&items, min_count, Parallelism::Global)
        .expect("a row-backed source runs the pass");
    assert_eq!(
        got,
        frequent(horizontal.counts(&pairs, Parallelism::Global)),
        "forced horizontal"
    );
    assert_eq!(
        got,
        frequent(vertical.counts(&pairs, Parallelism::Global)),
        "forced vertical"
    );
    assert_eq!(
        got,
        frequent(count_itemsets(data, &pairs, Parallelism::Global)),
        "bitmap reference"
    );
    assert_eq!(
        vertical.frequent_pairs(&items, min_count, Parallelism::Global),
        None
    );
    assert!(
        !horizontal.index_built(),
        "budget 0 must never build an index"
    );
    got
}

/// The pair pass over more frequent items than one band of counters holds:
/// 560 items make C(560, 2) = 156,520 pairs, three bands.
#[test]
fn frequent_pairs_agree_across_bands() {
    let data = random_transactions(11, 300, 560, 0.03);
    assert!(!check_frequent_pairs(&data, 2).is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The pair pass agrees with every other counting path, at thresholds
    /// from "every pair" (0) to "no pair".
    #[test]
    fn frequent_pairs_agree_with_every_counting_path(seed in 0u64..1_000_000,
                                                     n in 0usize..200,
                                                     n_items in 1u32..40,
                                                     density in 0.05f64..0.6,
                                                     min_count in 0u64..25) {
        check_frequent_pairs(&random_transactions(seed, n, n_items, density), min_count);
    }

    /// Four-way agreement: naive ≡ bitmap reference ≡ forced-horizontal
    /// source ≡ forced-vertical source, level by level over the mined
    /// itemsets — and the miner's recorded supports are the naive counts.
    #[test]
    fn counting_witnesses_agree_four_ways(seed in 0u64..1_000_000,
                                          n in 30usize..200,
                                          n_items in 4u32..12,
                                          density in 0.15f64..0.8,
                                          minsup in 0.05f64..0.4) {
        let data = random_transactions(seed, n, n_items, density);
        let model = Apriori::new(AprioriParams::with_minsup(minsup).max_len(5)).mine(&data);
        prop_assume!(!model.is_empty());
        let n_txn = model.n_transactions() as f64;
        let horizontal = CountSource::borrowed(&data).with_index_budget(0);
        let vertical = CountSource::from_index(VerticalIndex::build(&data));

        let max_len = model.itemsets().iter().map(|s| s.len()).max().unwrap();
        for k in 1..=max_len {
            let (level, supports): (Vec<Itemset>, Vec<f64>) = model
                .itemsets()
                .iter()
                .zip(model.supports())
                .filter(|(s, _)| s.len() == k)
                .map(|(s, &sup)| (s.clone(), sup))
                .unzip();
            if level.is_empty() {
                continue;
            }
            let naive = naive_counts(&data, &level);
            // The miner stores count / n exactly (one f64 division), so the
            // product recovers the integer count exactly.
            let mined: Vec<u64> = supports.iter().map(|s| (s * n_txn).round() as u64).collect();
            prop_assert_eq!(&mined, &naive, "mined supports vs naive at level {}", k);
            prop_assert_eq!(&count_itemsets(&data, &level, Parallelism::Global), &naive,
                            "bitmap reference vs naive at level {}", k);
            prop_assert_eq!(&horizontal.counts(&level, Parallelism::Global), &naive,
                            "forced horizontal vs naive at level {}", k);
            prop_assert_eq!(&vertical.counts(&level, Parallelism::Global), &naive,
                            "forced vertical vs naive at level {}", k);
        }
        // The whole mixed-length model in one workload, as measure
        // extension counts it.
        let all = naive_counts(&data, model.itemsets());
        prop_assert_eq!(&horizontal.counts(model.itemsets(), Parallelism::Global), &all);
        prop_assert_eq!(&vertical.counts(model.itemsets(), Parallelism::Global), &all);
        prop_assert!(!horizontal.index_built(), "budget 0 must never build an index");
    }

    /// The miner must produce the identical model — itemsets, supports,
    /// transaction count — whichever arm counts its levels: `mine` (the
    /// cost model's per-level choice) equals `mine_source` over a forced-
    /// horizontal and over a forced-vertical source.
    #[test]
    fn apriori_backends_mine_identical_models(seed in 0u64..1_000_000,
                                              n in 30usize..200,
                                              n_items in 4u32..12,
                                              density in 0.15f64..0.5,
                                              minsup in 0.05f64..0.4) {
        let data = random_transactions(seed, n, n_items, density);
        let miner = Apriori::new(AprioriParams::with_minsup(minsup).max_len(5));
        let reference = miner.mine(&data);
        let horizontal = miner.mine_source(&CountSource::borrowed(&data).with_index_budget(0));
        prop_assert_eq!(&horizontal, &reference, "forced horizontal");
        let vertical = miner.mine_source(&CountSource::from_index(VerticalIndex::build(&data)));
        prop_assert_eq!(&vertical, &reference, "forced vertical");
    }

    /// Cost-model dispatch witness: whatever arm a default-budget
    /// [`CountSource`] picks for this workload, its counts are
    /// `u64`-identical to both forced arms.
    #[test]
    fn cost_model_dispatch_agrees_with_forced_backends(seed in 0u64..1_000_000,
                                                       n in 30usize..300,
                                                       n_items in 4u32..12,
                                                       density in 0.15f64..0.5,
                                                       minsup in 0.05f64..0.4) {
        let data = random_transactions(seed, n, n_items, density);
        let model = Apriori::new(AprioriParams::with_minsup(minsup).max_len(5)).mine(&data);
        prop_assume!(!model.is_empty());

        // Budgets are pinned per handle so a concurrently running test
        // cannot skew the dispatch through the process-wide knob.
        let auto = CountSource::borrowed(&data).with_index_budget(DEFAULT_INDEX_BUDGET);
        let forced_horizontal = CountSource::borrowed(&data).with_index_budget(0);
        let forced_vertical = CountSource::from_index(VerticalIndex::build(&data));

        let reference = forced_horizontal.counts(model.itemsets(), Parallelism::Global);
        prop_assert_eq!(&auto.counts(model.itemsets(), Parallelism::Global), &reference,
                        "auto vs forced horizontal");
        prop_assert_eq!(&forced_vertical.counts(model.itemsets(), Parallelism::Global),
                        &reference,
                        "forced vertical vs forced horizontal");
    }
}
