//! The Apriori algorithm: level-wise frequent-itemset mining.
//!
//! Level `k ≥ 3` proceeds in three steps:
//! 1. **candidate generation** — join pairs of frequent `(k−1)`-itemsets
//!    sharing a `(k−2)`-prefix;
//! 2. **candidate pruning** — drop candidates with an infrequent
//!    `(k−1)`-subset (downward closure);
//! 3. **support counting** — [`CountSource::counts`] calls over batches of
//!    the level's candidates, generated and counted one batch at a time so
//!    a wide level never sits in memory whole.
//!
//! Levels 1 and 2 skip all three, as in Apriori's own passes 1 and 2:
//! [`CountSource::item_counts`] tallies every item in one pass over the
//! stored items, and [`CountSource::frequent_pairs`] counts every pair of
//! frequent items in one pass over the rows into per-thread `u16` pair
//! triangles and returns only the frequent ones. Neither builds an index.
//! An index-backed source has no rows: it reads level 1 off its per-item
//! popcounts, and its level 2 goes through the three steps like any other
//! level.
//!
//! The miner has no counting code of its own. Levels ≥ 3 and the
//! fallback level 2 count through [`CountSource::counts`], the same entry
//! point the FOCUS measure-extension step uses, so there is one cost
//! model, one horizontal walk and one batched vertical counter. The
//! source decides per batch, from the batch's shape alone, whether to
//! count over its cached tid-bitset index or with the horizontal walk;
//! every path produces identical `u64` counts, so the mined model never
//! depends on the choice. Mining and extending through one source builds
//! its index at most once.

use focus_core::data::TransactionSet;
use focus_core::model::LitsModel;
use focus_core::region::Itemset;
use focus_core::source::CountSource;
use focus_exec::Parallelism;
use std::collections::HashSet;

/// Tuning parameters for the miner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AprioriParams {
    /// Minimum support as a fraction of the number of transactions
    /// (the paper's `ms`, e.g. `0.01` for 1%).
    pub minsup: f64,
    /// Optional cap on itemset length (`None` = unbounded, the classical
    /// algorithm). Useful to bound exploratory runs.
    pub max_len: Option<usize>,
    /// Absolute floor on the supporting-transaction count (default 1, the
    /// classical semantics). On very small datasets a fractional threshold
    /// can collapse to "1 transaction suffices", at which point *every*
    /// subset of every transaction is frequent and the lattice explodes
    /// combinatorially; setting the floor to 2+ keeps tiny-sample runs
    /// (e.g. a 1% sample of an already-scaled-down dataset) well-posed.
    pub min_count_floor: u64,
    /// Worker threads for the support-counting scans (default
    /// [`Parallelism::Global`]). Mined models are bit-identical for every
    /// setting: per-chunk transaction counts merge by `u64` addition.
    pub parallelism: Parallelism,
}

impl AprioriParams {
    /// Parameters with the given minimum support and no length cap.
    pub fn with_minsup(minsup: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&minsup) && minsup > 0.0,
            "minsup must be in (0, 1], got {minsup}"
        );
        Self {
            minsup,
            max_len: None,
            min_count_floor: 1,
            parallelism: Parallelism::Global,
        }
    }

    /// Caps the maximum itemset length.
    pub fn max_len(mut self, len: usize) -> Self {
        assert!(len >= 1);
        self.max_len = Some(len);
        self
    }

    /// Sets the absolute supporting-count floor (see
    /// [`AprioriParams::min_count_floor`]).
    pub fn min_count_floor(mut self, floor: u64) -> Self {
        assert!(floor >= 1);
        self.min_count_floor = floor;
        self
    }

    /// Sets the worker-thread policy for the support-counting scans.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }
}

/// The Apriori miner.
#[derive(Debug, Clone)]
pub struct Apriori {
    params: AprioriParams,
}

impl Apriori {
    /// Creates a miner with the given parameters.
    pub fn new(params: AprioriParams) -> Self {
        Self { params }
    }

    /// Mines the frequent itemsets of `data` and returns them as a
    /// [`LitsModel`] (itemsets + supports + the mining threshold): a
    /// [`Self::mine_source`] over a fresh [`CountSource`] borrowing `data`.
    pub fn mine(&self, data: &TransactionSet) -> LitsModel {
        self.mine_source(&CountSource::borrowed(data))
    }

    /// Mines the frequent itemsets of the dataset behind `source`: level 1
    /// through [`CountSource::item_counts`], level 2 through
    /// [`CountSource::frequent_pairs`] when the source has rows, every
    /// other level through [`CountSource::counts`]. The source's budget
    /// and representation decide which counting arm each `counts` call
    /// uses — a budget-0 source counts every such level horizontally, an
    /// index-backed source every level vertically — and never the mined
    /// model. Levels 1 and 2 build no index; one built by a later level
    /// stays cached in `source` for later counts, such as a measure
    /// extension.
    pub fn mine_source(&self, source: &CountSource<'_>) -> LitsModel {
        let n = source.len();
        if n == 0 {
            return LitsModel::new(Vec::new(), Vec::new(), self.params.minsup, 0);
        }
        // ceil(minsup · n) supporting transactions required.
        let min_count = ((self.params.minsup * n as f64).ceil().max(1.0) as u64)
            .max(self.params.min_count_floor);

        let par = self.params.parallelism;
        let within_cap = |k: usize| self.params.max_len.is_none_or(|cap| k <= cap);
        let mut all_frequent: Vec<(Itemset, u64)> = Vec::new();
        // Appends the frequent itemsets of one counted batch, in order, to
        // the model and to `frequent` (the next level's frontier).
        let mut keep = |batch: Vec<Itemset>, counts: Vec<u64>, frequent: &mut Vec<Itemset>| {
            for (cand, count) in batch.into_iter().zip(counts) {
                if count >= min_count {
                    all_frequent.push((cand.clone(), count));
                    frequent.push(cand);
                }
            }
        };
        let mut frontier: Vec<Itemset> = Vec::new();
        let singletons: Vec<Itemset> = (0..source.n_items())
            .map(|it| Itemset::new(vec![it]))
            .collect();
        keep(singletons, source.item_counts(par), &mut frontier);
        let mut k = 2usize;
        // Level 2 in one pass over the rows, when the source has them.
        let pairs = within_cap(2).then(|| {
            let items: Vec<u32> = frontier.iter().map(|s| s.items()[0]).collect();
            source.frequent_pairs(&items, min_count, par)
        });
        if let Some(pairs) = pairs.flatten() {
            let (batch, counts) = pairs
                .into_iter()
                .map(|(a, b, count)| (Itemset::new(vec![a, b]), count))
                .unzip();
            frontier.clear();
            keep(batch, counts, &mut frontier);
            k = 3;
        }
        while !frontier.is_empty() && within_cap(k) {
            let mut next: Vec<Itemset> = Vec::new();
            generate_candidates(&frontier, CANDIDATE_BATCH, |batch| {
                let counts = source.counts(&batch, par);
                keep(batch, counts, &mut next)
            });
            frontier = next;
            k += 1;
        }

        let (itemsets, counts): (Vec<Itemset>, Vec<u64>) = all_frequent.into_iter().unzip();
        let supports = counts.iter().map(|&c| c as f64 / n as f64).collect();
        LitsModel::new(itemsets, supports, self.params.minsup, n as u64)
    }
}

/// Candidates per [`CountSource::counts`] call. A wide level — such as
/// the C(1000, 2) ≈ 500k pairs of a 1,000-item universe, which reach this
/// path when an index-backed source counts level 2 — is generated and
/// counted in batches of about this many, so the miner never holds more
/// than one batch of candidates and their counts at once. That keeps its
/// memory small and, when bootstrap replicates mine concurrently, steady
/// from run to run.
const CANDIDATE_BATCH: usize = 1 << 16;

/// Join + prune: candidates of size `k` from frequent itemsets of size
/// `k − 1`, handed to `emit` in ascending order. A batch closes once it
/// holds at least `batch` candidates, and only between two groups of
/// candidates that share their first `k − 1` items, so each batch keeps
/// whole the prefix groups the vertical counter folds once per group.
/// No batch is empty.
fn generate_candidates(frequent: &[Itemset], batch: usize, mut emit: impl FnMut(Vec<Itemset>)) {
    let freq_set: HashSet<&[u32]> = frequent.iter().map(Itemset::items).collect();
    // Frequent itemsets are sorted lexicographically so prefix-sharing pairs
    // are adjacent runs.
    let mut sorted: Vec<&[u32]> = frequent.iter().map(Itemset::items).collect();
    sorted.sort();
    let Some(k1) = sorted.first().map(|v| v.len()) else {
        return;
    };
    // Generation order is already ascending: runs ascend by prefix, and
    // within a run `sorted[i] ++ [last of sorted[j]]` ascends in (i, j).
    let mut out = Vec::new();
    let mut start = 0;
    while start < sorted.len() {
        // Run of itemsets sharing the first k1−1 items.
        let prefix = &sorted[start][..k1 - 1];
        let mut end = start + 1;
        while end < sorted.len() && &sorted[end][..k1 - 1] == prefix {
            end += 1;
        }
        for i in start..end {
            for j in (i + 1)..end {
                let mut cand = sorted[i].to_vec();
                cand.push(*sorted[j].last().expect("non-empty itemset"));
                // Downward-closure prune: every (k−1)-subset frequent.
                if all_subsets_frequent(&cand, &freq_set) {
                    out.push(Itemset::new(cand));
                }
            }
            if out.len() >= batch {
                emit(std::mem::take(&mut out));
            }
        }
        start = end;
    }
    if !out.is_empty() {
        emit(out);
    }
}

/// True if every subset of `cand` missing one element is in `freq_set`.
fn all_subsets_frequent(cand: &[u32], freq_set: &HashSet<&[u32]>) -> bool {
    let mut sub: Vec<u32> = Vec::with_capacity(cand.len() - 1);
    for skip in 0..cand.len() {
        sub.clear();
        sub.extend(
            cand.iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, &x)| x),
        );
        if !freq_set.contains(sub.as_slice()) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::model::count_itemsets;
    use focus_core::vertical::VerticalIndex;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(rows: &[&[u32]], n_items: u32) -> TransactionSet {
        let mut ts = TransactionSet::new(n_items);
        for r in rows {
            ts.push(r.to_vec());
        }
        ts
    }

    #[test]
    fn textbook_example() {
        // The classic Agrawal–Srikant toy dataset.
        let data = dataset(&[&[0, 2, 3], &[1, 2, 4], &[0, 1, 2, 4], &[1, 4]], 5);
        // minsup 50% → min_count 2.
        let m = Apriori::new(AprioriParams::with_minsup(0.5)).mine(&data);
        let expect = |items: &[u32], sup: f64| {
            let got = m
                .support_of(&Itemset::from_slice(items))
                .unwrap_or_else(|| panic!("{items:?} should be frequent"));
            assert!((got - sup).abs() < 1e-12, "{items:?}: {got} vs {sup}");
        };
        expect(&[0], 0.5);
        expect(&[1], 0.75);
        expect(&[2], 0.75);
        expect(&[4], 0.75);
        expect(&[0, 2], 0.5);
        expect(&[1, 2], 0.5);
        expect(&[1, 4], 0.75);
        expect(&[2, 4], 0.5);
        expect(&[1, 2, 4], 0.5);
        // {3} has support 0.25 — infrequent.
        assert!(m.support_of(&Itemset::from_slice(&[3])).is_none());
        assert_eq!(m.len(), 9);
    }

    #[test]
    fn empty_dataset() {
        let data = TransactionSet::new(4);
        let m = Apriori::new(AprioriParams::with_minsup(0.1)).mine(&data);
        assert!(m.is_empty());
        assert_eq!(m.n_transactions(), 0);
    }

    #[test]
    fn minsup_one_keeps_only_universal_items() {
        let data = dataset(&[&[0, 1], &[0, 2], &[0]], 3);
        let m = Apriori::new(AprioriParams::with_minsup(1.0)).mine(&data);
        assert_eq!(m.len(), 1);
        assert_eq!(m.support_of(&Itemset::from_slice(&[0])), Some(1.0));
    }

    #[test]
    fn max_len_caps_levels() {
        let rows: Vec<&[u32]> = vec![&[0, 1, 2]; 10];
        let data = dataset(&rows, 3);
        let m = Apriori::new(AprioriParams::with_minsup(0.5).max_len(2)).mine(&data);
        // 3 singletons + 3 pairs, no triple.
        assert_eq!(m.len(), 6);
        assert!(m.support_of(&Itemset::from_slice(&[0, 1, 2])).is_none());
    }

    /// Exhaustive reference miner for small universes.
    fn brute_force(data: &TransactionSet, minsup: f64) -> Vec<(Itemset, f64)> {
        let n_items = data.n_items();
        assert!(n_items <= 16);
        let all: Vec<Itemset> = (1u32..(1 << n_items))
            .map(|mask| Itemset::new((0..n_items).filter(|i| mask & (1 << i) != 0).collect()))
            .collect();
        let counts = count_itemsets(data, &all, Parallelism::Global);
        let n = data.len() as f64;
        let min_count = (minsup * n).ceil().max(1.0) as u64;
        let mut out: Vec<(Itemset, f64)> = all
            .into_iter()
            .zip(counts)
            .filter(|(_, c)| *c >= min_count)
            .map(|(s, c)| (s, c as f64 / n))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn agrees_with_brute_force_on_random_data() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..10 {
            let mut data = TransactionSet::new(8);
            let n = 60 + trial * 10;
            for _ in 0..n {
                let mut t = Vec::new();
                for item in 0..8u32 {
                    // Skewed inclusion probabilities create multi-level
                    // frequent itemsets.
                    if rng.gen::<f64>() < 0.55 - item as f64 * 0.06 {
                        t.push(item);
                    }
                }
                data.push(t);
            }
            for minsup in [0.1, 0.25, 0.4] {
                let mined = Apriori::new(AprioriParams::with_minsup(minsup)).mine(&data);
                let reference = brute_force(&data, minsup);
                assert_eq!(
                    mined.len(),
                    reference.len(),
                    "trial {trial} minsup {minsup}: {} vs {}",
                    mined.len(),
                    reference.len()
                );
                for (s, sup) in &reference {
                    let got = mined.support_of(s).expect("missing frequent itemset");
                    assert!((got - sup).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn candidate_generation_joins_and_prunes() {
        // Frequent pairs: {0,1}, {0,2}, {1,2}, {1,3}.
        // Join on shared prefix: {0,1}+{0,2}→{0,1,2}; {1,2}+{1,3}→{1,2,3}.
        // {0,1,2} survives the prune ({0,1},{0,2},{1,2} all frequent);
        // {1,2,3} is pruned because {2,3} is not frequent.
        let frequent: Vec<Itemset> = [[0, 1], [0, 2], [1, 2], [1, 3]]
            .iter()
            .map(|p| Itemset::from_slice(p))
            .collect();
        let mut cands = Vec::new();
        generate_candidates(&frequent, CANDIDATE_BATCH, |b| cands.extend(b));
        assert_eq!(cands, vec![Itemset::from_slice(&[0, 1, 2])]);
    }

    #[test]
    fn candidate_batches_split_a_level_between_prefix_groups() {
        // All 45 pairs over 10 items, from one run of frequent singletons.
        let frequent: Vec<Itemset> = (0..10u32).map(|i| Itemset::new(vec![i])).collect();
        let mut whole = Vec::new();
        generate_candidates(&frequent, usize::MAX, |b| whole.push(b));
        assert_eq!(whole.len(), 1);
        assert_eq!(whole[0].len(), 45);
        assert!(whole[0].windows(2).all(|w| w[0] < w[1]), "ascending");
        // Batches of at least 10 close after whole first-item groups
        // (9 + 8 = 17, 7 + 6 = 13, 5 + 4 + 3 = 12, then 2 + 1 = 3).
        let mut batches = Vec::new();
        generate_candidates(&frequent, 10, |b| batches.push(b));
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![17, 13, 12, 3]);
        assert_eq!(batches.concat(), whole[0]);
        // Level 3 from all pairs over 6 items: several runs, and batches
        // of at least 4 that close inside and across runs.
        let pairs: Vec<Itemset> = (0..6u32)
            .flat_map(|a| (a + 1..6).map(move |b| Itemset::from_slice(&[a, b])))
            .collect();
        let mut batches = Vec::new();
        generate_candidates(&pairs, 4, |b| batches.push(b));
        let sizes: Vec<usize> = batches.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![4, 5, 4, 5, 2]);
        let level: Vec<Itemset> = batches.concat();
        assert_eq!(level.len(), 20, "C(6, 3)");
        assert!(level.windows(2).all(|w| w[0] < w[1]), "ascending");
    }

    #[test]
    fn mined_counts_match_core_counter() {
        // The miner's counts and focus-core's bitmap counter must agree.
        let mut rng = StdRng::seed_from_u64(7);
        let mut data = TransactionSet::new(12);
        for _ in 0..200 {
            let t: Vec<u32> = (0..12).filter(|_| rng.gen::<f64>() < 0.3).collect();
            data.push(t);
        }
        let m = Apriori::new(AprioriParams::with_minsup(0.05)).mine(&data);
        let counts = count_itemsets(&data, m.itemsets(), Parallelism::Global);
        for (i, &c) in counts.iter().enumerate() {
            let sup = c as f64 / data.len() as f64;
            assert!(
                (sup - m.supports()[i]).abs() < 1e-12,
                "{}: {} vs {}",
                m.itemsets()[i],
                sup,
                m.supports()[i]
            );
        }
    }

    #[test]
    fn forced_arms_mine_identical_models() {
        // A budget-0 source counts every level with the horizontal walk,
        // an index-backed source every level over the tid bitsets; the
        // default source mixes them per level. All three must agree.
        let mut rng = StdRng::seed_from_u64(314);
        for trial in 0..5 {
            let mut data = TransactionSet::new(14);
            for _ in 0..(150 + trial * 40) {
                let t: Vec<u32> = (0..14).filter(|_| rng.gen::<f64>() < 0.35).collect();
                data.push(t);
            }
            for minsup in [0.05, 0.2] {
                let miner = Apriori::new(AprioriParams::with_minsup(minsup).max_len(6));
                let reference = miner.mine(&data);
                let horizontal =
                    miner.mine_source(&CountSource::borrowed(&data).with_index_budget(0));
                let vertical =
                    miner.mine_source(&CountSource::from_index(VerticalIndex::build(&data)));
                assert_eq!(horizontal, reference, "trial {trial} minsup {minsup}");
                assert_eq!(vertical, reference, "trial {trial} minsup {minsup}");
            }
        }
    }

    #[test]
    fn forced_arms_on_empty_and_tiny_data() {
        let empty = TransactionSet::new(4);
        let miner = Apriori::new(AprioriParams::with_minsup(0.1));
        assert!(miner
            .mine_source(&CountSource::from_index(VerticalIndex::build(&empty)))
            .is_empty());
        assert!(miner
            .mine_source(&CountSource::borrowed(&empty).with_index_budget(0))
            .is_empty());

        let data = dataset(&[&[0, 2, 3], &[1, 2, 4], &[0, 1, 2, 4], &[1, 4]], 5);
        let miner = Apriori::new(AprioriParams::with_minsup(0.5));
        let reference = miner.mine(&data);
        assert_eq!(
            miner.mine_source(&CountSource::from_index(VerticalIndex::build(&data))),
            reference
        );
        assert_eq!(
            miner.mine_source(&CountSource::borrowed(&data).with_index_budget(0)),
            reference
        );
    }

    /// Mines `data` through the pair pass (a row-backed source) and
    /// through the batched level-2 fallback (an index-backed source), and
    /// requires the same model from both.
    fn mine_both_level2_paths(miner: &Apriori, data: &TransactionSet) -> LitsModel {
        let pass = miner.mine_source(&CountSource::borrowed(data));
        let batched = miner.mine_source(&CountSource::from_index(VerticalIndex::build(data)));
        assert_eq!(pass, batched);
        pass
    }

    #[test]
    fn level2_pass_edge_cases() {
        let miner = Apriori::new(AprioriParams::with_minsup(0.5));
        // No frequent item, exactly one, exactly two.
        let none = dataset(&[&[0], &[1], &[2], &[3]], 4);
        assert!(mine_both_level2_paths(&miner, &none).is_empty());
        let one = dataset(&[&[0, 1], &[0, 2], &[0, 3], &[]], 4);
        let m = mine_both_level2_paths(&miner, &one);
        assert_eq!(m.itemsets(), &[Itemset::from_slice(&[0])]);
        let two = dataset(&[&[0, 2], &[0, 2, 3], &[1, 2], &[0]], 4);
        let m = mine_both_level2_paths(&miner, &two);
        assert_eq!(m.len(), 3);
        assert_eq!(m.support_of(&Itemset::from_slice(&[0, 2])), Some(0.5));
        // An empty dataset.
        assert!(mine_both_level2_paths(&miner, &TransactionSet::new(4)).is_empty());
        // max_len(1) stops before the pair pass.
        let rows: Vec<&[u32]> = vec![&[0, 1, 2]; 6];
        let full = dataset(&rows, 3);
        let m = mine_both_level2_paths(
            &Apriori::new(AprioriParams::with_minsup(0.5).max_len(1)),
            &full,
        );
        assert_eq!(m.len(), 3);
        assert!(m.itemsets().iter().all(|s| s.len() == 1));
        // A count floor above every pair's count keeps the singletons only.
        let mut skewed = vec![&[0u32, 1, 2][..]; 3];
        skewed.extend([&[0u32][..], &[1], &[2]]);
        let data = dataset(&skewed, 3);
        let floored = Apriori::new(AprioriParams::with_minsup(0.1).min_count_floor(4));
        let m = mine_both_level2_paths(&floored, &data);
        assert_eq!(m.len(), 3, "singletons have 4, pairs 3");
        assert!(m.itemsets().iter().all(|s| s.len() == 1));
    }

    #[test]
    fn first_two_levels_build_no_index() {
        // Sparse enough that counting all singletons through
        // `CountSource::counts` would build the index.
        let mut rng = StdRng::seed_from_u64(11);
        let mut data = TransactionSet::new(40);
        for _ in 0..2000 {
            let t: Vec<u32> = (0..40).filter(|_| rng.gen::<f64>() < 0.1).collect();
            data.push(t);
        }
        let singletons: Vec<Itemset> = (0..40).map(|i| Itemset::new(vec![i])).collect();
        let probe = CountSource::borrowed(&data);
        probe.counts(&singletons, Parallelism::Sequential);
        assert!(probe.index_built(), "a counts call would go vertical");

        let miner = Apriori::new(AprioriParams::with_minsup(0.01).max_len(2));
        let source = CountSource::borrowed(&data);
        let m = miner.mine_source(&source);
        assert!(!source.index_built(), "levels 1 and 2 build no index");
        assert!(m.itemsets().iter().any(|s| s.len() == 2));
        assert_eq!(
            m,
            miner.mine_source(&CountSource::from_index(VerticalIndex::build(&data)))
        );
    }

    #[test]
    #[should_panic(expected = "minsup must be in")]
    fn rejects_zero_minsup() {
        AprioriParams::with_minsup(0.0);
    }

    #[test]
    fn min_count_floor_prevents_tiny_sample_explosion() {
        // 20 transactions, minsup 1% → fractional threshold is below one
        // transaction. Without a floor every subset of every transaction is
        // frequent; with floor 3, only genuinely repeated itemsets survive.
        let mut data = TransactionSet::new(50);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let t: Vec<u32> = (0..50).filter(|_| rng.gen::<f64>() < 0.2).collect();
            data.push(t);
        }
        let floored = Apriori::new(
            AprioriParams::with_minsup(0.01)
                .max_len(10)
                .min_count_floor(3),
        )
        .mine(&data);
        // Everything kept is supported by at least 3 of 20 transactions.
        for &s in floored.supports() {
            assert!(s >= 3.0 / 20.0 - 1e-12);
        }
        // And the model stays small rather than exponential.
        assert!(floored.len() < 1000, "model size {}", floored.len());
    }
}
