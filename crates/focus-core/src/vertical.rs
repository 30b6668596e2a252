//! Eclat-style vertical tid-bitset counting (Zaki, KDD '97 lineage).
//!
//! The horizontal scans in [`crate::model`] re-touch every transaction for
//! every itemset: `O(rows × itemsets)` subset tests. This module stores the
//! dataset *vertically* instead — one transaction-id bitset per item — so
//! the support of an itemset is `popcount(AND of its item rows)`: word-level
//! bit operations over `ceil(n_transactions / 64)` words per item, with no
//! per-transaction branching at all.
//!
//! Itemsets are counted in batches ([`count_itemsets_grouped`]): the
//! workload is sorted so that itemsets sharing their first `k − 1` items
//! form runs, each run pays one cached prefix intersection, and each member
//! pays one masked popcount against its last item's row.
//!
//! The layout is deterministic (item-major, 64-bit words, transaction `t`
//! at bit `t % 64` of word `t / 64`, bits at positions `≥ n_transactions`
//! always zero) and the batch counter fans runs out via
//! [`focus_exec::map_indices`] with exact `u64` results — so counts are
//! bit-identical to the sequential fold for every thread count, exactly
//! like the horizontal scans.
//!
//! Counting semantics match [`crate::model::count_itemsets`] case for
//! case: the empty itemset is supported by every transaction, and an item
//! outside the dataset's universe supports nothing.

use crate::data::TransactionSet;
use crate::region::Itemset;
use focus_exec::{map_indices, Parallelism};

/// A vertical (item-major) tid-bitset index over a [`TransactionSet`].
///
/// Row `i` sets bit `t` iff transaction `t` contains item `i`. All rows
/// share the same word count `ceil(n_transactions / 64)`; bits at
/// positions `≥ n_transactions` are always zero, so popcounts over whole
/// rows are exact supports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerticalIndex {
    n_items: u32,
    n_transactions: usize,
    /// Words per item row: `ceil(n_transactions / 64)`.
    words: usize,
    /// Item-major bit matrix: `bits[item * words + w]`.
    bits: Vec<u64>,
}

impl VerticalIndex {
    /// Builds the index in one pass over `data`.
    pub fn build(data: &TransactionSet) -> Self {
        let n_items = data.n_items();
        let n_transactions = data.len();
        let words = n_transactions.div_ceil(64);
        let mut bits = vec![0u64; n_items as usize * words];
        for (t, txn) in data.iter().enumerate() {
            let (word, bit) = (t / 64, t % 64);
            for &it in txn {
                bits[it as usize * words + word] |= 1u64 << bit;
            }
        }
        Self {
            n_items,
            n_transactions,
            words,
            bits,
        }
    }

    /// Size of the item universe the index was built over.
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Number of transactions the index was built over.
    pub fn n_transactions(&self) -> usize {
        self.n_transactions
    }

    /// Words per item row (`ceil(n_transactions / 64)`).
    pub fn words_per_item(&self) -> usize {
        self.words
    }

    /// The tid bitset of `item`. Panics if `item` is outside the universe.
    pub fn item_bits(&self, item: u32) -> &[u64] {
        assert!(
            item < self.n_items,
            "item {item} out of range 0..{}",
            self.n_items
        );
        let start = item as usize * self.words;
        &self.bits[start..start + self.words]
    }

    /// The all-transactions mask word at position `w`: all ones, except
    /// the ragged tail of the last word, whose bits `≥ n_transactions`
    /// are zero.
    fn full_word(&self, w: usize) -> u64 {
        let tail = self.n_transactions % 64;
        if tail != 0 && w + 1 == self.words {
            (1u64 << tail) - 1
        } else {
            u64::MAX
        }
    }

    /// Materialises the intersection of the given items' rows into `out`
    /// (resized to the row width). Returns `false` — leaving `out` all
    /// zeros — if any item is outside the universe. An empty `items`
    /// slice yields the all-transactions mask (the empty itemset's
    /// cover), ragged tail zeroed.
    pub fn intersect_into(&self, items: &[u32], out: &mut Vec<u64>) -> bool {
        out.clear();
        out.resize(self.words, 0u64);
        if items.iter().any(|&it| it >= self.n_items) {
            return false;
        }
        for (w, o) in out.iter_mut().enumerate() {
            *o = self.full_word(w);
        }
        for &it in items {
            for (o, w) in out.iter_mut().zip(self.item_bits(it)) {
                *o &= w;
            }
        }
        true
    }

    /// The number of transactions in `mask` that also contain `item`:
    /// `popcount(mask & row)`, the Eclat prefix-extension step. `mask` is a
    /// cached (k−1)-prefix intersection and must have
    /// [`Self::words_per_item`] words with its ragged tail zeroed; items
    /// outside the universe count 0.
    pub fn count_with_mask(&self, mask: &[u64], item: u32) -> u64 {
        assert_eq!(mask.len(), self.words, "mask width must match the index");
        if item >= self.n_items {
            return 0;
        }
        mask.iter()
            .zip(self.item_bits(item))
            .map(|(m, w)| u64::from((m & w).count_ones()))
            .sum()
    }

    /// The size [`Self::build`] allocates for `n_items` items over
    /// `n_transactions` rows, without building it: `n_items × ceil(n / 64)
    /// × 8` bytes. Used by the counting cost model
    /// ([`crate::source::prefers_vertical`]) to refuse indexes over the
    /// index budget. Saturates at `usize::MAX` — a universe big enough to
    /// wrap the multiplication must read as "too big for the budget", not
    /// as a small wrapped product that would let the cost model wave an
    /// absurd allocation through.
    pub fn estimate_bytes_for(n_items: u32, n_transactions: usize) -> usize {
        (n_items as usize)
            .checked_mul(n_transactions.div_ceil(64))
            .and_then(|words| words.checked_mul(8))
            .unwrap_or(usize::MAX)
    }
}

/// Splits `itemsets` into trivially resolved counts and the slot indices
/// that need a real count: the empty itemset is supported by every
/// transaction (`n`) and an itemset naming an item outside the universe by
/// none (0), both pre-filled in the returned vector. Both arms of the
/// counting engine resolve through here, so they agree case for case.
pub(crate) fn resolve_itemsets(
    itemsets: &[Itemset],
    n_items: u32,
    n_transactions: usize,
) -> (Vec<u64>, Vec<usize>) {
    let mut counts = vec![0u64; itemsets.len()];
    let mut count_slots = Vec::new();
    for (i, s) in itemsets.iter().enumerate() {
        if s.is_empty() {
            counts[i] = n_transactions as u64;
        } else if s.items().iter().all(|&it| it < n_items) {
            count_slots.push(i);
        }
    }
    (counts, count_slots)
}

/// Batched prefix-run counting: sorts the workload internally (results
/// come back in the caller's order), groups consecutive itemsets of equal
/// length sharing their first `k − 1` items into runs, materialises **one
/// intersection mask per run** ([`VerticalIndex::intersect_into`]), and
/// counts every member with a single masked popcount against its last
/// item's row ([`VerticalIndex::count_with_mask`]).
///
/// An Apriori candidate level is exactly such a workload — candidates are
/// joined from shared `(k−1)`-prefixes — and so is a measure-extension scan
/// over a mined model's GCR, whose sibling itemsets pay the `(k−1)`-row
/// fold once per run instead of once per itemset. Runs fan out over `par`
/// worker threads in run order and every count is an exact `u64`
/// popcount, so the counts are bit-identical to the horizontal scan and to
/// themselves for any thread count.
pub fn count_itemsets_grouped(
    index: &VerticalIndex,
    itemsets: &[Itemset],
    par: Parallelism,
) -> Vec<u64> {
    let (mut counts, mut fold_slots) =
        resolve_itemsets(itemsets, index.n_items(), index.n_transactions());
    if fold_slots.is_empty() || index.words_per_item() == 0 {
        return counts;
    }

    // Adjacency by (length, items): equal-length itemsets sharing a
    // (k−1)-prefix sort into consecutive runs. The sort is stable over
    // pre-sorted slot indices, so the run decomposition — and with it the
    // whole computation — is a pure function of the workload.
    fold_slots.sort_by(|&a, &b| {
        let (sa, sb) = (itemsets[a].items(), itemsets[b].items());
        sa.len().cmp(&sb.len()).then_with(|| sa.cmp(sb))
    });
    let prefix_of = |slot: usize| {
        let items = itemsets[slot].items();
        &items[..items.len() - 1]
    };
    let mut runs: Vec<std::ops::Range<usize>> = Vec::new();
    let mut start = 0;
    while start < fold_slots.len() {
        let k = itemsets[fold_slots[start]].len();
        let prefix = prefix_of(fold_slots[start]);
        let mut end = start + 1;
        while end < fold_slots.len()
            && itemsets[fold_slots[end]].len() == k
            && prefix_of(fold_slots[end]) == prefix
        {
            end += 1;
        }
        runs.push(start..end);
        start = end;
    }
    let per_run: Vec<Vec<u64>> = map_indices(par, runs.len(), |r| {
        let run = runs[r].clone();
        let mut mask = Vec::new();
        // Fold slots passed the range check wholesale, so the prefix is
        // always inside the universe and the mask is the real cover.
        index.intersect_into(prefix_of(fold_slots[run.start]), &mut mask);
        run.map(|j| {
            let items = itemsets[fold_slots[j]].items();
            index.count_with_mask(&mask, *items.last().expect("fold slots are non-empty"))
        })
        .collect()
    });
    for (run, partial) in runs.iter().zip(per_run) {
        for (j, c) in run.clone().zip(partial) {
            counts[fold_slots[j]] = c;
        }
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::count_itemsets;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn toy() -> TransactionSet {
        // 4 transactions over items {0, 1} — the model.rs toy dataset.
        let mut ts = TransactionSet::new(2);
        ts.push(vec![0, 1]);
        ts.push(vec![0]);
        ts.push(vec![1]);
        ts.push(vec![0, 1]);
        ts
    }

    fn random_set(seed: u64, n: usize, n_items: u32, density: f64) -> TransactionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = TransactionSet::new(n_items);
        for _ in 0..n {
            let t: Vec<u32> = (0..n_items)
                .filter(|_| rng.gen::<f64>() < density)
                .collect();
            ts.push(t);
        }
        ts
    }

    #[test]
    fn counts_match_toy_example() {
        let idx = VerticalIndex::build(&toy());
        let sets = vec![
            Itemset::from_slice(&[0]),
            Itemset::from_slice(&[1]),
            Itemset::from_slice(&[0, 1]),
        ];
        assert_eq!(
            count_itemsets_grouped(&idx, &sets, Parallelism::Global),
            vec![3, 3, 2]
        );
    }

    #[test]
    fn empty_itemset_counts_every_transaction() {
        let idx = VerticalIndex::build(&toy());
        let sets = vec![Itemset::new(vec![])];
        assert_eq!(
            count_itemsets_grouped(&idx, &sets, Parallelism::Global),
            vec![4]
        );
    }

    #[test]
    fn out_of_range_items_count_zero() {
        let idx = VerticalIndex::build(&toy());
        let sets = vec![Itemset::from_slice(&[7]), Itemset::from_slice(&[0, 7])];
        assert_eq!(
            count_itemsets_grouped(&idx, &sets, Parallelism::Global),
            vec![0, 0]
        );
        assert_eq!(
            idx.count_with_mask(&vec![u64::MAX; idx.words_per_item()], 7),
            0
        );
    }

    #[test]
    fn empty_dataset_counts_zero() {
        let ts = TransactionSet::new(5);
        let idx = VerticalIndex::build(&ts);
        assert_eq!(idx.words_per_item(), 0);
        let sets = vec![Itemset::new(vec![]), Itemset::from_slice(&[1])];
        assert_eq!(
            count_itemsets_grouped(&idx, &sets, Parallelism::Global),
            vec![0, 0]
        );
    }

    #[test]
    fn ragged_tail_words_stay_zero() {
        // 129 transactions → 3 words, last word uses exactly one bit.
        let mut ts = TransactionSet::new(1);
        for _ in 0..129 {
            ts.push(vec![0]);
        }
        let idx = VerticalIndex::build(&ts);
        assert_eq!(idx.words_per_item(), 3);
        assert_eq!(
            count_itemsets_grouped(&idx, &[Itemset::from_slice(&[0])], Parallelism::Global),
            vec![129]
        );
        assert_eq!(idx.item_bits(0)[2], 1, "only bit 128 set in the tail word");
        // The empty-itemset cover mask must honour the ragged tail too.
        let mut mask = Vec::new();
        assert!(idx.intersect_into(&[], &mut mask));
        assert_eq!(
            mask.iter().map(|w| w.count_ones()).sum::<u32>(),
            129,
            "all-transactions mask"
        );
    }

    #[test]
    fn intersect_into_and_mask_extension_match_direct_counts() {
        let ts = random_set(3, 500, 12, 0.35);
        let idx = VerticalIndex::build(&ts);
        let direct = count_itemsets(
            &ts,
            &[Itemset::from_slice(&[1, 4, 9])],
            Parallelism::Sequential,
        )[0];
        let mut mask = Vec::new();
        assert!(idx.intersect_into(&[1, 4], &mut mask));
        assert_eq!(idx.count_with_mask(&mask, 9), direct);
        // Out-of-range prefix zeroes the mask.
        assert!(!idx.intersect_into(&[1, 99], &mut mask));
        assert!(mask.iter().all(|&w| w == 0));
    }

    #[test]
    fn agrees_with_horizontal_scan_on_random_data() {
        for (seed, n, n_items, density) in [
            (1u64, 300, 10u32, 0.3),
            (2, 777, 16, 0.2),
            (9, 65, 6, 0.6),
            (17, 450, 8, 0.8),
        ] {
            let ts = random_set(seed, n, n_items, density);
            // Every 1- and 2-itemset, plus some larger and out-of-range ones.
            let mut sets: Vec<Itemset> = (0..n_items).map(|i| Itemset::new(vec![i])).collect();
            for a in 0..n_items {
                for b in (a + 1)..n_items {
                    sets.push(Itemset::from_slice(&[a, b]));
                }
            }
            sets.push(Itemset::new(vec![]));
            sets.push(Itemset::from_slice(&[0, 2, 4]));
            sets.push(Itemset::from_slice(&[n_items + 3]));
            let horizontal = count_itemsets(&ts, &sets, Parallelism::Sequential);
            let idx = VerticalIndex::build(&ts);
            assert_eq!(
                count_itemsets_grouped(&idx, &sets, Parallelism::Global),
                horizontal
            );
        }
    }

    #[test]
    fn grouped_counting_shares_prefix_runs_in_any_input_order() {
        let ts = random_set(23, 400, 10, 0.4);
        let idx = VerticalIndex::build(&ts);
        // A shuffled workload with heavy prefix sharing, duplicates, and
        // trivial cases interleaved.
        let mut sets = vec![
            Itemset::from_slice(&[0, 1, 2]),
            Itemset::from_slice(&[5]),
            Itemset::from_slice(&[0, 1, 7]),
            Itemset::new(vec![]),
            Itemset::from_slice(&[0, 1, 4]),
            Itemset::from_slice(&[2, 3]),
            Itemset::from_slice(&[0, 1, 2]),
            Itemset::from_slice(&[12]),
            Itemset::from_slice(&[2, 7]),
        ];
        let reference = count_itemsets(&ts, &sets, Parallelism::Sequential);
        assert_eq!(
            count_itemsets_grouped(&idx, &sets, Parallelism::Global),
            reference
        );
        // Order invariance: reversing the workload permutes the counts
        // identically.
        sets.reverse();
        let reversed = count_itemsets_grouped(&idx, &sets, Parallelism::Global);
        let mut expect = reference;
        expect.reverse();
        assert_eq!(reversed, expect);
    }

    #[test]
    fn memory_accounting() {
        let ts = random_set(5, 130, 10, 0.3);
        let idx = VerticalIndex::build(&ts);
        assert_eq!(idx.bits.len() * 8, 10 * 3 * 8);
        assert_eq!(
            VerticalIndex::estimate_bytes_for(ts.n_items(), ts.len()),
            idx.bits.len() * 8
        );
    }

    #[test]
    fn estimate_bytes_saturates_instead_of_wrapping() {
        // A pathological universe whose n_items × words × 8 product
        // overflows usize must read as "too big", never as a small
        // wrapped product the index budget would accept.
        assert_eq!(
            VerticalIndex::estimate_bytes_for(u32::MAX, usize::MAX),
            usize::MAX
        );
        // Wraps in the word multiply, not just the ×8 step.
        assert_eq!(
            VerticalIndex::estimate_bytes_for(u32::MAX, usize::MAX / 2),
            usize::MAX
        );
        // Sane inputs are exact.
        assert_eq!(VerticalIndex::estimate_bytes_for(10, 130), 10 * 3 * 8);
        assert_eq!(VerticalIndex::estimate_bytes_for(0, 1 << 40), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn item_bits_rejects_out_of_universe_items() {
        let idx = VerticalIndex::build(&toy());
        idx.item_bits(2);
    }
}
