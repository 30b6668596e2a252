//! The lits counting engine: one handle per dataset that answers every
//! itemset-support question — Apriori's candidate levels and FOCUS's
//! measure extension (Definition 3.6) alike — through whichever of two
//! arms a deterministic cost model picks, building the vertical index at
//! most once per handle.
//!
//! A [`CountSource`] wraps the horizontal [`TransactionSet`] view
//! (borrowed or owned) or a pre-built [`VerticalIndex`], and lazily caches
//! the index behind a [`OnceLock`] so `Fn + Sync` parallel closures can
//! share one handle across worker threads. Its two arms:
//!
//! * **vertical** — the tid-bitset index counted in prefix-sharing batches
//!   ([`count_itemsets_grouped`]);
//! * **horizontal** — a prefix-guided walk over each transaction that
//!   enumerates exactly the workload itemsets it contains, descending only
//!   while the partial itemset is a prefix of some workload itemset. It
//!   serves workloads of any mix of lengths, so it is the fallback both
//!   for tiny workloads that cannot pay for an index build and for datasets
//!   whose index does not fit the budget.
//!
//! Apriori's first two levels have dedicated entry points, each one pass
//! over the rows that builds no index and so never consults the budget
//! (Apriori's own passes 1 and 2, Agrawal & Srikant, VLDB '94; Zaki,
//! TKDE 2000):
//!
//! * [`CountSource::item_counts`] tallies every item into one count
//!   array; an index-backed source reads its per-item popcounts instead;
//! * [`CountSource::frequent_pairs`] counts every pair of the frequent
//!   items into per-thread `u16` pair triangles, cut into bands only when
//!   one triangle would pass 2 MiB. An index-backed source declines it,
//!   and the miner counts its pairs through [`CountSource::counts`].
//!
//! ## The cost model
//!
//! [`prefers_vertical`] compares two estimates:
//!
//! * horizontal scan ≈ `rows × Σ|itemset|` subset probes plus one pass
//!   over every stored item (`total_items` touches);
//! * vertical count ≈ `Σ|itemset| × words` AND/popcount word ops plus the
//!   build pass, weighted by `INDEX_BUILD_WEIGHT` so a throwaway index
//!   never wins on a workload too small to amortise it.
//!
//! The choice is a **pure function of data shape, workload and budget** —
//! never thread count, timing, or whether a cache already holds the index
//! — so dispatch can never violate the workspace's
//! bit-identical-for-any-thread-count contract. Both arms produce
//! identical `u64` counts (the differential suite enforces this), so the
//! model can only change cost, never a result.
//!
//! ## The index budget
//!
//! A huge sparse item universe over few transactions makes the bit matrix
//! mostly zeros; the budget caps how large an index the cost model may
//! choose to build. Every constructor starts at [`MAX_INDEX_BYTES`]
//! (128 MiB); [`CountSource::with_index_budget`] overrides it per handle.
//! A budget of `0` never builds an index — a forced-horizontal handle for
//! every [`CountSource::counts`] call (the item and pair passes are
//! horizontal anyway).

use crate::data::TransactionSet;
use crate::region::Itemset;
use crate::vertical::{count_itemsets_grouped, resolve_itemsets, VerticalIndex};
use focus_exec::{map_chunks, merge_counts, Parallelism};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Cap on the bit-matrix size the cost model may build: 128 MiB.
pub const MAX_INDEX_BYTES: usize = 128 << 20;

// ---------------------------------------------------------------------------
// The cost model

/// How much more a build-pass touch costs than a steady-state word op.
/// Building writes scattered cache lines (item-major matrix, row-major
/// input) while counting streams them, and a throwaway build is pure
/// overhead if the workload never revisits the index — so the build term
/// is up-weighted to keep one-shot small workloads on the horizontal scan.
const INDEX_BUILD_WEIGHT: usize = 4;

/// The deterministic arm choice for counting `n_itemsets` itemsets
/// totalling `workload_items` items over the given data shape: `true`
/// (vertical) when the index fits `budget_bytes` and the word fold plus
/// the `INDEX_BUILD_WEIGHT`-weighted build pass costs less than the
/// horizontal scan.
///
/// Inputs are data shape, workload and budget only — never thread count,
/// timing, or cache state — so for a fixed dataset and call sequence the
/// decision is identical on every run and every `FOCUS_THREADS` setting.
/// The build term is charged even when a handle already caches its index,
/// so a call's arm never depends on what an earlier call happened to build.
pub fn prefers_vertical(
    n_itemsets: usize,
    workload_items: usize,
    n_transactions: usize,
    n_items: u32,
    total_items: usize,
    budget_bytes: usize,
) -> bool {
    if n_itemsets == 0
        || n_transactions == 0
        || VerticalIndex::estimate_bytes_for(n_items, n_transactions) > budget_bytes
    {
        return false;
    }
    let words = n_transactions.div_ceil(64) as u128;
    // Horizontal: every stored item is touched once and every transaction
    // is probed once per itemset item.
    let horizontal = (n_transactions as u128) * (workload_items as u128) + total_items as u128;
    // Vertical: AND + popcount over each itemset item's word row, plus the
    // weighted build pass (one touch per stored item, one per matrix byte).
    let build = (INDEX_BUILD_WEIGHT as u128)
        * (total_items as u128 + (n_items as u128) * words.div_ceil(8));
    (workload_items as u128) * words + build < horizontal
}

// ---------------------------------------------------------------------------
// The horizontal arm

/// Minimum transactions per worker chunk for the passes over the rows.
const SCAN_GRAIN: usize = focus_exec::DEFAULT_GRAIN;

/// One node of the walk's lookup table: a sorted item sequence that is a
/// workload itemset, a proper prefix of one, or both. Kept to two `u32`s:
/// a measure extension or a miner's candidate batch puts tens of thousands
/// of nodes in the table.
#[derive(Clone, Copy)]
struct Node {
    /// Slot of the itemset in the deduplicated workload, or [`PREFIX_ONLY`]
    /// if the node is not itself a workload itemset.
    slot: u32,
    /// If the node is a proper prefix: how many more items the shortest
    /// workload itemset extending it needs (0 for a leaf-only node).
    need: u32,
}

/// [`Node::slot`] of a node that is only a prefix.
const PREFIX_ONLY: u32 = u32::MAX;

/// Counts `itemsets` over `data` with the prefix-guided walk, fanning the
/// transaction range out over `par` worker threads.
///
/// Per transaction (filtered to the items that occur in the workload) a
/// depth-first walk extends a partial itemset only while it is a proper
/// prefix of some workload itemset, counts every node that is itself a
/// workload itemset, and stops extending once too few items remain to
/// complete the shortest itemset under the current prefix. The cost is
/// polynomial in the workload rather than in `2^|t|` — the practical trick
/// that replaces the original Apriori paper's hash tree — and it handles
/// workloads of mixed lengths, so Apriori levels and GCR extensions share
/// it. The empty itemset, out-of-universe items and duplicates resolve
/// exactly as in [`count_itemsets_grouped`]. Each chunk tallies into
/// its own counter vector, merged by `u64` addition, so the counts are
/// bit-identical to a sequential scan.
fn count_horizontal(data: &TransactionSet, itemsets: &[Itemset], par: Parallelism) -> Vec<u64> {
    let (mut counts, count_slots) = resolve_itemsets(itemsets, data.n_items(), data.len());
    if count_slots.is_empty() || data.is_empty() {
        return counts;
    }
    // The lookup table: every workload itemset (deduplicated to one slot)
    // and every proper prefix, keyed by its sorted items.
    let fresh = Node {
        slot: PREFIX_ONLY,
        need: 0,
    };
    let mut nodes: HashMap<&[u32], Node> = HashMap::with_capacity(count_slots.len());
    let mut slot_of: Vec<u32> = Vec::with_capacity(count_slots.len());
    let mut n_unique = 0u32;
    let mut active = vec![false; data.n_items() as usize];
    let mut root_need = u32::MAX;
    for &i in &count_slots {
        let items = itemsets[i].items();
        let len = items.len() as u32;
        let node = nodes.entry(items).or_insert(fresh);
        if node.slot == PREFIX_ONLY {
            node.slot = n_unique;
            n_unique += 1;
        }
        slot_of.push(node.slot);
        for plen in 1..len {
            let prefix = nodes.entry(&items[..plen as usize]).or_insert(fresh);
            let need = len - plen;
            if prefix.need == 0 || need < prefix.need {
                prefix.need = need;
            }
        }
        for &it in items {
            active[it as usize] = true;
        }
        root_need = root_need.min(len);
    }

    let (nodes, active) = (&nodes, &active);
    let parts = map_chunks(par, data.len(), SCAN_GRAIN, |range| {
        let mut tally = vec![0u64; n_unique as usize];
        let mut filtered: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::new();
        for t in range {
            filtered.clear();
            filtered.extend(
                data.get(t)
                    .iter()
                    .copied()
                    .filter(|&it| active[it as usize]),
            );
            if filtered.len() >= root_need as usize {
                walk(&filtered, root_need, &mut stack, nodes, &mut tally);
            }
        }
        tally
    });
    let tally = merge_counts(parts);
    for (&i, &slot) in count_slots.iter().zip(&slot_of) {
        counts[i] = tally[slot as usize];
    }
    counts
}

/// The walk below one node: `stack` is the node's itemset and `need` the
/// number of further items its shortest extension requires.
fn walk(
    items: &[u32],
    need: u32,
    stack: &mut Vec<u32>,
    nodes: &HashMap<&[u32], Node>,
    tally: &mut [u64],
) {
    for (pos, &it) in items.iter().enumerate() {
        if items.len() - pos < need as usize {
            break;
        }
        stack.push(it);
        if let Some(node) = nodes.get(stack.as_slice()) {
            if node.slot != PREFIX_ONLY {
                tally[node.slot as usize] += 1;
            }
            if node.need > 0 {
                walk(&items[pos + 1..], node.need, stack, nodes, tally);
            }
        }
        stack.pop();
    }
}

// ---------------------------------------------------------------------------
// The triangular pair pass

/// Most `u16` pair counters one triangle may hold: 2 MiB. The triangle of
/// up to 1,448 frequent items fits whole (0.95 MB for 988 items, one
/// core's L2 cache); a larger one is cut into bands of at most this many
/// counters, each counted in a pass of its own.
const PAIR_BAND: usize = 1 << 20;

/// Rows a worker chunk tallies in `u16` before it must fold them into its
/// `u32` copy: no pair occurs twice in a row, so no counter can wrap.
const U16_ROWS: usize = u16::MAX as usize;

/// One worker chunk's counters for one band: `u16` tallies of the rows
/// since the last fold, plus a `u32` copy (allocated at the first fold)
/// holding everything folded before them.
struct PairTally {
    small: Vec<u16>,
    wide: Vec<u32>,
}

impl PairTally {
    /// Moves the `u16` tallies into the `u32` copy and clears them.
    fn fold(&mut self) {
        if self.wide.is_empty() {
            self.wide = vec![0; self.small.len()];
        }
        for (w, s) in self.wide.iter_mut().zip(&mut self.small) {
            *w += u32::from(std::mem::take(s));
        }
    }
}

/// Every pair of `items` (strictly ascending) that at least `min_count`
/// rows of `data` contain, as `(a, b, count)` with `a < b`, in ascending
/// order: Apriori's pass 2 without materialising its C(f, 2) candidates.
///
/// The triangle of pair counters is indexed by frequent-item rank. The
/// rows are split over `par` (`map_chunks`), and each chunk increments a
/// `u16` triangle of its own, Σ C(|t|, 2) increments in all; after every
/// [`U16_ROWS`] rows a chunk folds its tallies into a `u32` copy. The
/// threshold scan then sums the chunks' counters exactly, rank row by
/// rank row. A triangle of more than [`PAIR_BAND`] counters is cut into
/// contiguous bands of first ranks (a band always holds at least one
/// rank), each counted in one pass over the rows, so memory stays capped
/// at one band per chunk. Integer sums do not depend on how the rows were
/// split, so the result is bit-identical for any thread count.
fn count_pairs(
    data: &TransactionSet,
    items: &[u32],
    min_count: u64,
    par: Parallelism,
) -> Vec<(u32, u32, u64)> {
    assert!(
        items.windows(2).all(|w| w[0] < w[1]),
        "frequent_pairs wants strictly ascending items"
    );
    let f = items.len();
    // Pairs whose first rank is below `a`: the offset of rank `a`'s row.
    let row_start = |a: usize| a * (2 * f - a - 1) / 2;
    const UNRANKED: u32 = u32::MAX;
    let mut rank = vec![UNRANKED; data.n_items() as usize];
    for (r, &it) in items.iter().enumerate() {
        if let Some(slot) = rank.get_mut(it as usize) {
            *slot = r as u32;
        }
    }
    let rank = &rank;
    let mut frequent = Vec::new();
    let mut sums: Vec<u64> = Vec::new();
    let mut lo = 0;
    while lo + 1 < f {
        let mut hi = lo + 1;
        while hi + 1 < f && row_start(hi + 1) - row_start(lo) <= PAIR_BAND {
            hi += 1;
        }
        let base = row_start(lo);
        let len = row_start(hi) - base;
        // A chunk must bring enough rows to pay for zeroing and scanning
        // its own triangle.
        let grain = SCAN_GRAIN.max(len / 256);
        let parts = map_chunks(par, data.len(), grain, |range| {
            let mut tally = PairTally {
                small: vec![0; len],
                wide: Vec::new(),
            };
            let mut ranks: Vec<u32> = Vec::new();
            for first in range.clone().step_by(U16_ROWS) {
                if first > range.start {
                    tally.fold();
                }
                for t in first..range.end.min(first + U16_ROWS) {
                    ranks.clear();
                    ranks.extend(
                        data.get(t)
                            .iter()
                            .map(|&it| rank[it as usize])
                            .filter(|&r| r != UNRANKED && r as usize >= lo),
                    );
                    for (i, &a) in ranks.iter().enumerate() {
                        let a = a as usize;
                        if a >= hi {
                            break;
                        }
                        let row = &mut tally.small[row_start(a) - base..row_start(a + 1) - base];
                        for &b in &ranks[i + 1..] {
                            row[b as usize - a - 1] += 1;
                        }
                    }
                }
            }
            tally
        });
        for a in lo..hi {
            let cells = row_start(a) - base..row_start(a + 1) - base;
            sums.clear();
            sums.resize(cells.len(), 0);
            for part in &parts {
                for (s, &c) in sums.iter_mut().zip(&part.small[cells.clone()]) {
                    *s += u64::from(c);
                }
                if !part.wide.is_empty() {
                    for (s, &c) in sums.iter_mut().zip(&part.wide[cells.clone()]) {
                        *s += u64::from(c);
                    }
                }
            }
            for (&b, &count) in items[a + 1..].iter().zip(&sums) {
                if count >= min_count {
                    frequent.push((items[a], b, count));
                }
            }
        }
        lo = hi;
    }
    frequent
}

/// How many rows of `data` hold each item of its universe: one pass over
/// the stored items, fanned out over `par` by rows.
fn count_items(data: &TransactionSet, par: Parallelism) -> Vec<u64> {
    let parts = map_chunks(par, data.len(), SCAN_GRAIN, |range| {
        let mut tally = vec![0u64; data.n_items() as usize];
        for t in range {
            for &it in data.get(t) {
                tally[it as usize] += 1;
            }
        }
        tally
    });
    // No rows, no chunks: every item counts 0.
    let mut counts = merge_counts(parts);
    counts.resize(data.n_items() as usize, 0);
    counts
}

// ---------------------------------------------------------------------------
// CountSource

/// How a [`CountSource`] holds its data.
enum Repr<'a> {
    /// A borrowed horizontal view (the common in-process case).
    Borrowed(&'a TransactionSet),
    /// An owned horizontal view (e.g. a loaded registry snapshot).
    Owned(TransactionSet),
    /// A pre-built index with no horizontal view at all.
    Index(VerticalIndex),
}

/// A snapshot-scoped counting handle: wraps one dataset and serves
/// [`CountSource::counts`] through whichever arm [`prefers_vertical`]
/// picks per call, building the [`VerticalIndex`] at most once for the
/// handle's lifetime.
///
/// The handle is `Sync` and interior-mutable ([`OnceLock`]), so parallel
/// `Fn + Sync` closures can share one source per snapshot and still pay
/// at most one index build between them. The index budget is snapshotted at construction, so every count
/// through one handle sees the same budget regardless of later knob turns.
pub struct CountSource<'a> {
    repr: Repr<'a>,
    cache: OnceLock<VerticalIndex>,
    budget: usize,
}

impl std::fmt::Debug for CountSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountSource")
            .field(
                "repr",
                &match self.repr {
                    Repr::Borrowed(_) => "borrowed",
                    Repr::Owned(_) => "owned",
                    Repr::Index(_) => "index",
                },
            )
            .field("indexed", &self.index_built())
            .field("budget", &self.budget)
            .finish()
    }
}

impl<'a> CountSource<'a> {
    /// A source borrowing `data` (no copy); the usual in-process handle.
    pub fn borrowed(data: &'a TransactionSet) -> CountSource<'a> {
        CountSource {
            repr: Repr::Borrowed(data),
            cache: OnceLock::new(),
            budget: MAX_INDEX_BYTES,
        }
    }

    /// A source owning `data` — e.g. a registry snapshot.
    pub fn from_owned(data: TransactionSet) -> CountSource<'static> {
        CountSource {
            repr: Repr::Owned(data),
            cache: OnceLock::new(),
            budget: MAX_INDEX_BYTES,
        }
    }

    /// A source that *is* an index: every count goes vertical, no
    /// horizontal view exists (tests use it to force the vertical arm).
    pub fn from_index(index: VerticalIndex) -> CountSource<'static> {
        CountSource {
            repr: Repr::Index(index),
            cache: OnceLock::new(),
            budget: MAX_INDEX_BYTES,
        }
    }

    /// Overrides the handle's index budget of [`MAX_INDEX_BYTES`] (tests
    /// and benches force the horizontal arm with `0`). Has no effect on an
    /// index-backed source, which never builds anything.
    pub fn with_index_budget(mut self, bytes: usize) -> CountSource<'a> {
        self.budget = bytes;
        self
    }

    /// Number of transactions behind the handle.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Borrowed(d) => d.len(),
            Repr::Owned(d) => d.len(),
            Repr::Index(idx) => idx.n_transactions(),
        }
    }

    /// True when the handle holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Size of the item universe behind the handle.
    pub fn n_items(&self) -> u32 {
        match &self.repr {
            Repr::Borrowed(d) => d.n_items(),
            Repr::Owned(d) => d.n_items(),
            Repr::Index(idx) => idx.n_items(),
        }
    }

    /// The horizontal view, when the handle has one (`None` for an
    /// index-backed source).
    pub fn transactions(&self) -> Option<&TransactionSet> {
        match &self.repr {
            Repr::Borrowed(d) => Some(d),
            Repr::Owned(d) => Some(d),
            Repr::Index(_) => None,
        }
    }

    /// True when a vertical index exists — pre-built or already cached.
    pub fn index_built(&self) -> bool {
        matches!(self.repr, Repr::Index(_)) || self.cache.get().is_some()
    }

    /// Support counts for `itemsets`, dispatched by the cost model.
    ///
    /// Index-backed sources always count vertically. Horizontal-backed
    /// sources consult [`prefers_vertical`] every call — dispatch depends
    /// only on the workload's shape, never on what an earlier call cached —
    /// and a vertical choice reuses (or race-safely builds) the cached
    /// index. Vertical counting goes through the batched prefix-run path
    /// ([`count_itemsets_grouped`]); horizontal counting through the
    /// prefix-guided walk. Counts are bit-identical across arms and thread
    /// counts.
    pub fn counts(&self, itemsets: &[Itemset], par: Parallelism) -> Vec<u64> {
        let data = match &self.repr {
            Repr::Index(idx) => return count_itemsets_grouped(idx, itemsets, par),
            Repr::Borrowed(d) => d,
            Repr::Owned(d) => d,
        };
        let workload_items: usize = itemsets.iter().map(Itemset::len).sum();
        if prefers_vertical(
            itemsets.len(),
            workload_items,
            data.len(),
            data.n_items(),
            data.total_items(),
            self.budget,
        ) {
            let index = self.cache.get_or_init(|| VerticalIndex::build(data));
            count_itemsets_grouped(index, itemsets, par)
        } else {
            count_horizontal(data, itemsets, par)
        }
    }

    /// How many transactions hold each item of the universe (Apriori's
    /// level 1), indexed by item. A source with rows counts them in one
    /// pass over the stored items and builds no index; an index-backed
    /// source reads each item's popcount.
    pub fn item_counts(&self, par: Parallelism) -> Vec<u64> {
        match &self.repr {
            Repr::Index(idx) => (0..idx.n_items())
                .map(|it| {
                    idx.item_bits(it)
                        .iter()
                        .map(|w| u64::from(w.count_ones()))
                        .sum()
                })
                .collect(),
            Repr::Borrowed(d) => count_items(d, par),
            Repr::Owned(d) => count_items(d, par),
        }
    }

    /// Every pair of `items` (strictly ascending) supported by at least
    /// `min_count` transactions, as ascending `(a, b, count)` triples:
    /// Apriori's level 2 counted in one pass over the rows into per-chunk
    /// `u16` pair triangles, without building or consulting the index.
    ///
    /// Returns `None` when the handle has no horizontal view (an
    /// index-backed source), or holds more rows than a `u32` counter can
    /// tally; the caller then counts the pairs through [`Self::counts`].
    /// The result is bit-identical for any thread count.
    pub fn frequent_pairs(
        &self,
        items: &[u32],
        min_count: u64,
        par: Parallelism,
    ) -> Option<Vec<(u32, u32, u64)>> {
        let data = self.transactions()?;
        (data.len() <= u32::MAX as usize).then(|| count_pairs(data, items, min_count, par))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::count_itemsets;

    // Compile-time contract: sources are shared across worker threads.
    const fn assert_sync<T: Sync>() {}
    const _: () = assert_sync::<CountSource<'static>>();

    fn toy() -> TransactionSet {
        let mut ts = TransactionSet::new(2);
        ts.push(vec![0, 1]);
        ts.push(vec![0]);
        ts.push(vec![1]);
        ts.push(vec![0, 1]);
        ts
    }

    fn random_set(seed: u64, n: usize, n_items: u32, density: f64) -> TransactionSet {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
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
    fn cost_model_is_deterministic_and_budget_capped() {
        // A workload big enough to amortise the build prefers vertical…
        let big = prefers_vertical(17, 25, 2000, 9, 7200, MAX_INDEX_BYTES);
        assert!(big);
        // …and the same inputs always give the same answer.
        for _ in 0..8 {
            assert_eq!(
                prefers_vertical(17, 25, 2000, 9, 7200, MAX_INDEX_BYTES),
                big
            );
        }
        // A single tiny scan never pays for a build.
        assert!(!prefers_vertical(1, 2, 1000, 10, 3000, MAX_INDEX_BYTES));
        // Budget 0 forbids building regardless of workload, and an index
        // one byte over the budget is refused too.
        assert!(!prefers_vertical(1000, 5000, 100_000, 50, 1_000_000, 0));
        let bytes = VerticalIndex::estimate_bytes_for(9, 2000);
        assert!(prefers_vertical(17, 25, 2000, 9, 7200, bytes));
        assert!(!prefers_vertical(17, 25, 2000, 9, 7200, bytes - 1));
        // Degenerate shapes never dispatch a build.
        assert!(!prefers_vertical(0, 0, 1000, 10, 3000, MAX_INDEX_BYTES));
        assert!(!prefers_vertical(5, 10, 0, 10, 0, MAX_INDEX_BYTES));
    }

    /// Exhaustive subset reference: supports of `sets` by merge-walking
    /// each transaction, written without the bitmap or the walk.
    fn naive(data: &TransactionSet, sets: &[Itemset]) -> Vec<u64> {
        sets.iter()
            .map(|s| {
                data.iter()
                    .filter(|t| {
                        let mut it = t.iter();
                        s.items().iter().all(|x| it.any(|y| y == x))
                    })
                    .count() as u64
            })
            .collect()
    }

    #[test]
    fn horizontal_walk_counts_mixed_length_workloads() {
        let ts = random_set(41, 700, 12, 0.35);
        // Mixed lengths where some itemsets are prefixes of others,
        // duplicates, the empty itemset, an out-of-universe item, and an
        // itemset too long for most transactions to reach.
        let sets = vec![
            Itemset::from_slice(&[0, 1, 2]),
            Itemset::from_slice(&[0, 1]),
            Itemset::from_slice(&[0]),
            Itemset::from_slice(&[3, 5, 7, 9]),
            Itemset::from_slice(&[0, 1]),
            Itemset::new(vec![]),
            Itemset::from_slice(&[4, 40]),
            Itemset::from_slice(&[11]),
            Itemset::from_slice(&[0, 1, 2, 3, 4, 5, 6, 7]),
            Itemset::from_slice(&[2, 9]),
        ];
        let mut want = naive(&ts, &sets);
        want[6] = 0; // out of universe
        for t in [1usize, 2, 4, 7] {
            assert_eq!(
                count_horizontal(&ts, &sets, Parallelism::Threads(t)),
                want,
                "threads = {t}"
            );
        }
        // Edge workloads: nothing to count, only trivial itemsets, and an
        // empty dataset.
        assert!(count_horizontal(&ts, &[], Parallelism::Sequential).is_empty());
        assert_eq!(
            count_horizontal(
                &ts,
                &[Itemset::new(vec![]), Itemset::from_slice(&[99])],
                Parallelism::Sequential
            ),
            vec![700, 0]
        );
        assert_eq!(
            count_horizontal(&TransactionSet::new(4), &sets[..3], Parallelism::Sequential),
            vec![0, 0, 0]
        );
    }

    #[test]
    fn frequent_pairs_match_naive_counts() {
        let ts = random_set(17, 500, 14, 0.3);
        // Item 3 is left out, so ranks and item ids differ.
        let items: Vec<u32> = (0..14).filter(|&i| i != 3).collect();
        let pairs: Vec<Itemset> = items
            .iter()
            .enumerate()
            .flat_map(|(i, &a)| {
                items[i + 1..]
                    .iter()
                    .map(move |&b| Itemset::new(vec![a, b]))
            })
            .collect();
        let source = CountSource::borrowed(&ts);
        for min_count in [0, 1, 40, 501] {
            let want: Vec<(u32, u32, u64)> = pairs
                .iter()
                .zip(naive(&ts, &pairs))
                .filter(|&(_, c)| c >= min_count)
                .map(|(s, c)| (s.items()[0], s.items()[1], c))
                .collect();
            for t in [1usize, 2, 4, 7] {
                assert_eq!(
                    source.frequent_pairs(&items, min_count, Parallelism::Threads(t)),
                    Some(want.clone()),
                    "min_count {min_count}, threads {t}"
                );
            }
        }
        assert!(!source.index_built(), "the pair pass builds no index");
        // Fewer than two items have no pairs; an index-backed source has
        // no rows to pass over.
        for few in [&[][..], &[5]] {
            assert_eq!(
                source.frequent_pairs(few, 0, Parallelism::Sequential),
                Some(vec![])
            );
        }
        let indexed = CountSource::from_index(VerticalIndex::build(&ts));
        assert_eq!(
            indexed.frequent_pairs(&items, 1, Parallelism::Sequential),
            None
        );
    }

    #[test]
    fn item_counts_match_naive_for_every_repr() {
        let ts = random_set(29, 900, 13, 0.3);
        let singletons: Vec<Itemset> = (0..13).map(|i| Itemset::from_slice(&[i])).collect();
        let want = naive(&ts, &singletons);
        let borrowed = CountSource::borrowed(&ts);
        for t in [1usize, 2, 4, 7] {
            assert_eq!(
                borrowed.item_counts(Parallelism::Threads(t)),
                want,
                "threads {t}"
            );
        }
        assert!(!borrowed.index_built(), "the item pass builds no index");
        let owned = CountSource::from_owned(ts.clone());
        assert_eq!(owned.item_counts(Parallelism::Sequential), want);
        let indexed = CountSource::from_index(VerticalIndex::build(&ts));
        assert_eq!(indexed.item_counts(Parallelism::Sequential), want);
        // No rows: one zero per item of the universe, whatever the repr.
        let empty = TransactionSet::new(3);
        assert_eq!(
            CountSource::borrowed(&empty).item_counts(Parallelism::Sequential),
            vec![0; 3]
        );
        assert_eq!(
            CountSource::from_index(VerticalIndex::build(&empty))
                .item_counts(Parallelism::Sequential),
            vec![0; 3]
        );
    }

    #[test]
    fn counts_match_horizontal_for_all_reprs() {
        let ts = random_set(21, 600, 11, 0.35);
        let sets: Vec<Itemset> = (0..11u32)
            .map(|i| Itemset::from_slice(&[i]))
            .chain((0..10u32).map(|i| Itemset::from_slice(&[i, i + 1])))
            .chain([Itemset::new(vec![]), Itemset::from_slice(&[40])])
            .collect();
        let reference = count_itemsets(&ts, &sets, Parallelism::Sequential);
        let borrowed = CountSource::borrowed(&ts);
        assert_eq!(borrowed.counts(&sets, Parallelism::Sequential), reference);
        let owned = CountSource::from_owned(ts.clone());
        assert_eq!(owned.counts(&sets, Parallelism::Sequential), reference);
        let indexed = CountSource::from_index(VerticalIndex::build(&ts));
        assert_eq!(indexed.counts(&sets, Parallelism::Sequential), reference);
        // Forced-horizontal budget: still the same counts.
        let capped = CountSource::borrowed(&ts).with_index_budget(0);
        assert_eq!(capped.counts(&sets, Parallelism::Sequential), reference);
        assert!(!capped.index_built(), "budget 0 must never build");
    }

    #[test]
    fn index_is_cached_across_calls() {
        let ts = random_set(5, 2000, 9, 0.4);
        let sets: Vec<Itemset> = (0..9u32)
            .map(|i| Itemset::from_slice(&[i]))
            .chain((0..8u32).map(|i| Itemset::from_slice(&[i, i + 1])))
            .collect();
        let source = CountSource::borrowed(&ts);
        assert!(!source.index_built());
        let first = source.counts(&sets, Parallelism::Sequential);
        assert!(source.index_built(), "this workload should go vertical");
        // The second call reuses the cached index and agrees bit-for-bit.
        let second = source.counts(&sets, Parallelism::Sequential);
        assert_eq!(first, second);
        assert_eq!(first, count_itemsets(&ts, &sets, Parallelism::Sequential));
    }

    #[test]
    fn accessors_cover_every_repr() {
        let ts = toy();
        let borrowed = CountSource::borrowed(&ts);
        assert_eq!(borrowed.len(), 4);
        assert_eq!(borrowed.n_items(), 2);
        assert!(!borrowed.is_empty());
        assert!(borrowed.transactions().is_some());
        let indexed = CountSource::from_index(VerticalIndex::build(&ts));
        assert_eq!(indexed.len(), 4);
        assert_eq!(indexed.n_items(), 2);
        assert!(indexed.transactions().is_none());
        assert!(indexed.index_built());
        let empty = CountSource::from_owned(TransactionSet::new(3));
        assert!(empty.is_empty());
        assert_eq!(
            empty.counts(
                &[Itemset::new(vec![]), Itemset::from_slice(&[1])],
                Parallelism::Sequential
            ),
            vec![0, 0]
        );
    }
}
