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
//! Apriori's all-pairs level has a third, dedicated entry point,
//! [`CountSource::frequent_pairs`]: one blocked triangular pass over the
//! rows that counts every pair of the frequent items at once (the
//! standard pass-2 treatment in Apriori and Eclat, Zaki, TKDE 2000). It
//! needs the horizontal view, builds no index and so never consults the
//! budget; an index-backed source declines it, and the miner counts its
//! pairs through [`CountSource::counts`] instead.
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
//! choose to build. It resolves like `FOCUS_THREADS`: the CLI override
//! ([`set_global_index_budget`], the `--index-budget` flag) beats the
//! `FOCUS_INDEX_BUDGET` environment variable (bytes, with optional
//! `k`/`m`/`g` binary suffixes; unparseable values warn once and fall
//! back) beats the [`DEFAULT_INDEX_BUDGET`] of 128 MiB. A budget of `0`
//! never builds an index — a forced-horizontal knob for every
//! [`CountSource::counts`] call (the pair pass is horizontal anyway).

use crate::data::TransactionSet;
use crate::region::Itemset;
use crate::vertical::{count_itemsets_grouped, resolve_itemsets, VerticalIndex};
use focus_exec::{map_chunks, map_indices, merge_counts, Parallelism};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Index budget plumbing (mirrors focus-exec's FOCUS_THREADS handling)

/// Default cap on the bit-matrix size the cost model may build: 128 MiB.
pub const DEFAULT_INDEX_BUDGET: usize = 128 << 20;

/// Sentinel for "no process-wide override set".
const BUDGET_UNSET: usize = usize::MAX;

/// Process-wide budget override (CLI `--index-budget`).
static GLOBAL_BUDGET: AtomicUsize = AtomicUsize::new(BUDGET_UNSET);

/// Lazily parsed `FOCUS_INDEX_BUDGET` environment setting.
static ENV_BUDGET: OnceLock<Option<usize>> = OnceLock::new();

/// Parses a byte-count knob: a plain byte count, optionally suffixed with
/// `k`, `m` or `g` (case-insensitive, binary units). `"0"` is valid and
/// means "never build an index".
pub fn parse_index_budget(s: &str) -> Option<usize> {
    let t = s.trim();
    let (digits, unit) = match t.as_bytes().last()? {
        b'k' | b'K' => (&t[..t.len() - 1], 1usize << 10),
        b'm' | b'M' => (&t[..t.len() - 1], 1 << 20),
        b'g' | b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse::<usize>().ok()?.checked_mul(unit)
}

fn env_index_budget() -> Option<usize> {
    // A typo'd budget silently falling back would be invisible (counts are
    // bit-identical either way), so say so once.
    focus_exec::env_knob_once(
        &ENV_BUDGET,
        "FOCUS_INDEX_BUDGET",
        parse_index_budget,
        |raw| {
            eprintln!(
                "focus-core: ignoring unparseable FOCUS_INDEX_BUDGET={raw:?} \
             (want a byte count, optionally with a k/m/g suffix); \
             using the {} MiB default",
                DEFAULT_INDEX_BUDGET >> 20
            )
        },
    )
}

/// Sets the process-wide index budget in bytes (the CLI's `--index-budget`
/// flag). Takes precedence over the `FOCUS_INDEX_BUDGET` environment
/// variable. `0` means "never build an index".
pub fn set_global_index_budget(bytes: usize) {
    GLOBAL_BUDGET.store(bytes.min(BUDGET_UNSET - 1), Ordering::Relaxed);
}

/// The process-wide index budget: [`set_global_index_budget`] if called,
/// else `FOCUS_INDEX_BUDGET`, else [`DEFAULT_INDEX_BUDGET`].
pub fn global_index_budget() -> usize {
    match GLOBAL_BUDGET.load(Ordering::Relaxed) {
        BUDGET_UNSET => env_index_budget().unwrap_or(DEFAULT_INDEX_BUDGET),
        b => b,
    }
}

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

/// Minimum transactions per worker chunk for the horizontal walk.
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
// The blocked triangular pair pass

/// Pair counters per band of [`count_pairs_blocked`]: 256 KiB of `u32`,
/// small enough to stay in a core's cache while the rows stream past.
const PAIR_BAND: usize = 1 << 16;

/// Every pair of `items` (strictly ascending) that at least `min_count`
/// rows of `data` contain, as `(a, b, count)` with `a < b`, in ascending
/// order — Apriori's pass 2 without materialising its C(f, 2) candidates.
///
/// The triangle of pair counters is indexed by frequent-item rank and cut
/// into contiguous bands of first ranks, each of at most [`PAIR_BAND`]
/// counters (a band always holds at least one rank, so only more than
/// 65,537 frequent items can exceed it). Each band scans every row and
/// counts just the pairs whose first rank falls in it: Σ C(|t|, 2)
/// increments in all, spread over the bands. Whole bands fan out over
/// `par` and their frequent pairs are concatenated in band order, so every
/// counter is written by one thread, nothing is merged, and the result is
/// bit-identical for any thread count.
fn count_pairs_blocked(
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
    let mut bands: Vec<(usize, usize)> = Vec::new();
    let mut lo = 0;
    while lo + 1 < f {
        let mut hi = lo + 1;
        while hi + 1 < f && row_start(hi + 1) - row_start(lo) <= PAIR_BAND {
            hi += 1;
        }
        bands.push((lo, hi));
        lo = hi;
    }
    const UNRANKED: u32 = u32::MAX;
    let mut rank = vec![UNRANKED; data.n_items() as usize];
    for (r, &it) in items.iter().enumerate() {
        if let Some(slot) = rank.get_mut(it as usize) {
            *slot = r as u32;
        }
    }
    let rank = &rank;
    let parts = map_indices(par, bands.len(), |band| {
        let (lo, hi) = bands[band];
        let base = row_start(lo);
        let mut counters = vec![0u32; row_start(hi) - base];
        let mut ranks: Vec<u32> = Vec::new();
        for t in data.iter() {
            ranks.clear();
            ranks.extend(
                t.iter()
                    .map(|&it| rank[it as usize])
                    .filter(|&r| r != UNRANKED && r as usize >= lo),
            );
            for (i, &a) in ranks.iter().enumerate() {
                let a = a as usize;
                if a >= hi {
                    break;
                }
                let row = &mut counters[row_start(a) - base..row_start(a + 1) - base];
                for &b in &ranks[i + 1..] {
                    row[b as usize - a - 1] += 1;
                }
            }
        }
        let mut frequent = Vec::new();
        for a in lo..hi {
            let row = &counters[row_start(a) - base..row_start(a + 1) - base];
            for (&b, &count) in items[a + 1..].iter().zip(row) {
                if u64::from(count) >= min_count {
                    frequent.push((items[a], b, u64::from(count)));
                }
            }
        }
        frequent
    });
    parts.concat()
}

// ---------------------------------------------------------------------------
// CountSource

/// How a [`CountSource`] holds its data.
enum Repr<'a> {
    /// A borrowed horizontal view (the common in-process case).
    Borrowed(&'a TransactionSet),
    /// An owned horizontal view (e.g. a text-loaded registry snapshot).
    Owned(TransactionSet),
    /// A pre-built index with no horizontal view at all — the
    /// decode-to-index path, where binary snapshot bytes become bitsets
    /// without ever materialising a `TransactionSet`.
    Index(VerticalIndex),
}

/// A snapshot-scoped counting handle: wraps one dataset and serves
/// [`CountSource::counts`] through whichever arm [`prefers_vertical`]
/// picks per call, building the [`VerticalIndex`] at most once for the
/// handle's lifetime.
///
/// The handle is `Sync` and interior-mutable ([`OnceLock`]), so parallel
/// `Fn + Sync` closures — the matrix engine's per-pair fan-out — can share
/// one source per snapshot and still pay at most one index build between
/// them. The index budget is snapshotted at construction, so every count
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
            budget: global_index_budget(),
        }
    }

    /// A source owning `data` — e.g. a registry snapshot loaded from text.
    pub fn from_owned(data: TransactionSet) -> CountSource<'static> {
        CountSource {
            repr: Repr::Owned(data),
            cache: OnceLock::new(),
            budget: global_index_budget(),
        }
    }

    /// A source that *is* an index: every count goes vertical, no
    /// horizontal view exists. This is the decode-to-index registry path.
    pub fn from_index(index: VerticalIndex) -> CountSource<'static> {
        CountSource {
            repr: Repr::Index(index),
            cache: OnceLock::new(),
            budget: global_index_budget(),
        }
    }

    /// Overrides the handle's index budget (tests and benches; production
    /// callers use the process-wide knob). Has no effect on an
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

    /// Every pair of `items` (strictly ascending) supported by at least
    /// `min_count` transactions, as ascending `(a, b, count)` triples —
    /// Apriori's level 2 counted in one blocked triangular pass over the
    /// rows, without building or consulting the index.
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
        (data.len() <= u32::MAX as usize).then(|| count_pairs_blocked(data, items, min_count, par))
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
    fn parse_index_budget_accepts_bytes_and_binary_suffixes() {
        assert_eq!(parse_index_budget("0"), Some(0));
        assert_eq!(parse_index_budget("4096"), Some(4096));
        assert_eq!(parse_index_budget("64k"), Some(64 << 10));
        assert_eq!(parse_index_budget("64K"), Some(64 << 10));
        assert_eq!(parse_index_budget("128m"), Some(128 << 20));
        assert_eq!(parse_index_budget("2G"), Some(2 << 30));
        assert_eq!(parse_index_budget(" 16m "), Some(16 << 20));
        for bad in ["", "m", "-1", "1.5g", "12kb", "lots", "1 6k"] {
            assert_eq!(parse_index_budget(bad), None, "{bad:?}");
        }
        // Overflow saturates to None, never wraps.
        assert_eq!(parse_index_budget(&format!("{}g", usize::MAX)), None);
    }

    #[test]
    fn cost_model_is_deterministic_and_budget_capped() {
        // A workload big enough to amortise the build prefers vertical…
        let big = prefers_vertical(17, 25, 2000, 9, 7200, DEFAULT_INDEX_BUDGET);
        assert!(big);
        // …and the same inputs always give the same answer.
        for _ in 0..8 {
            assert_eq!(
                prefers_vertical(17, 25, 2000, 9, 7200, DEFAULT_INDEX_BUDGET),
                big
            );
        }
        // A single tiny scan never pays for a build.
        assert!(!prefers_vertical(
            1,
            2,
            1000,
            10,
            3000,
            DEFAULT_INDEX_BUDGET
        ));
        // Budget 0 forbids building regardless of workload, and an index
        // one byte over the budget is refused too.
        assert!(!prefers_vertical(1000, 5000, 100_000, 50, 1_000_000, 0));
        let bytes = VerticalIndex::estimate_bytes_for(9, 2000);
        assert!(prefers_vertical(17, 25, 2000, 9, 7200, bytes));
        assert!(!prefers_vertical(17, 25, 2000, 9, 7200, bytes - 1));
        // Degenerate shapes never dispatch a build.
        assert!(!prefers_vertical(
            0,
            0,
            1000,
            10,
            3000,
            DEFAULT_INDEX_BUDGET
        ));
        assert!(!prefers_vertical(5, 10, 0, 10, 0, DEFAULT_INDEX_BUDGET));
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
        // Pin the budget: another test in this binary may be exercising
        // the process-wide setter concurrently.
        let source = CountSource::borrowed(&ts).with_index_budget(DEFAULT_INDEX_BUDGET);
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

    #[test]
    fn global_budget_defaults_and_overrides() {
        // No override set in this test binary unless another test in this
        // process set one; exercise the setter round trip explicitly.
        set_global_index_budget(64 << 10);
        assert_eq!(global_index_budget(), 64 << 10);
        set_global_index_budget(0);
        assert_eq!(global_index_budget(), 0);
        // usize::MAX is clamped below the "unset" sentinel, not treated
        // as unset.
        set_global_index_budget(usize::MAX);
        assert_eq!(global_index_budget(), usize::MAX - 1);
        set_global_index_budget(DEFAULT_INDEX_BUDGET);
        assert_eq!(global_index_budget(), DEFAULT_INDEX_BUDGET);
    }
}
