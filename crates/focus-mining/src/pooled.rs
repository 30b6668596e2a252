//! Permutation qualification of a lits deviation over one pooled mine
//! (Section 3.4).
//!
//! `focus_core::qualify::qualify` re-mines both pseudo-datasets of every
//! replicate. For lits-models one mine of the pool is enough, because a
//! [`permutation_split`](focus_core::qualify::permutation_split)
//! partitions the pool: for every itemset `X` and every replicate,
//! `c₂(X) = c_pool(X) − c₁(X)` and `c_pool(X) ≥ cᵢ(X)`. With
//! `tᵢ = min_count(nᵢ)` (the miner's own threshold rule), every itemset
//! frequent on either side of any replicate is therefore frequent in the
//! pool at `min(t₁, t₂)`, under the same length cap. So:
//!
//! 1. mine the pool once at `min(t₁, t₂)`, keeping the exact counts;
//! 2. walk the pooled itemsets in canonical order, a preorder of their
//!    prefix trie, with the tid bitsets of the pool's frequent items as in
//!    Eclat (Zaki, IEEE TKDE 2000). A stack holds `mask ∧ tids(prefix)`
//!    per depth, so each itemset costs one AND and popcount against its
//!    last item's row: `c₁ = popcount(stack[k − 1] ∧ tids(last))`. An
//!    itemset with `c₁ < t₁` and `c₂ < t₂` is in neither side's model,
//!    nor is any itemset below it, so its subtree is skipped;
//! 3. the kept itemsets are the GCR `L₁′ ∪ L₂′` in canonical order. Their
//!    supports `c₁ / n₁` and `c₂ / n₂` are the two measure vectors, and
//!    [`fold_measures`] folds them as `deviate_over_sources` does.
//!
//! Each replicate's δ is thus bit-identical to re-mining its two sides and
//! deviating them, and the observed δ is the same walk with `D1`'s rows
//! as the mask. No replicate copies, mines or extends anything.
//!
//! **Skewed sides re-mine instead.** The pool mine runs at the smaller
//! threshold over all `n₁ + n₂` rows. When one side's threshold is more
//! than twice the other's, that is a far lower support than either side
//! is mined at, and the pool's frequent set can be orders of magnitude
//! larger than both models together: 1k against 20k `gen-assoc` rows at
//! minsup 0.01 (counts 10 and 200) took 12 s for 9 replicates, where
//! re-mining each replicate took 0.1 s. Such a pair is qualified by
//! re-mining both sides of every replicate, through the same split, so
//! the result is the same either way; only the cost differs.

use crate::Apriori;
use focus_core::data::TransactionSet;
use focus_core::deviation::{deviate, fold_measures};
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::LitsFamily;
use focus_core::qualify::{qualify, split_null, BootstrapResult};
use focus_core::region::Itemset;
use focus_core::source::CountSource;
use focus_exec::Parallelism;

/// The largest ratio `max(t₁, t₂) / min(t₁, t₂)` of the two sides' count
/// thresholds at which the pool is mined once (module docs). Equal sizes
/// give 1. Measured on `gen-assoc` sides of 1k–10k rows against 10k rows
/// (minsup 0.01 and 0.005, 9 and 99 replicates, two threads): at ratio 2
/// the pooled path took 0.04–0.22 s where re-mining took 0.09–0.57 s; at
/// ratio 3 it was already the slower one for 9 replicates at minsup 0.005
/// (0.13 s against 0.10 s), and at ratio 10 it took 0.45–12 s against
/// 0.07–0.92 s.
const MAX_THRESHOLD_RATIO: u64 = 2;

/// Qualifies the lits deviation `δ(f, g)` between `d1` and `d2`, as mined
/// by `miner`, against `reps` permutation replicates fanned out over
/// `par` worker threads.
///
/// The result — observed δ, null distribution and significance — is
/// bit-identical to `focus_core::qualify::qualify` with a statistic that
/// mines both sides with `miner` and deviates them, at the same `seed`,
/// for any thread count. When the sides' count thresholds are within a
/// factor of two of each other, the pool is mined once and each replicate
/// is one walk of it; otherwise every replicate re-mines (module docs).
///
/// # Panics
///
/// If either dataset is empty.
#[allow(clippy::too_many_arguments)]
pub fn qualify_pooled(
    d1: &TransactionSet,
    d2: &TransactionSet,
    miner: &Apriori,
    f: DiffFn,
    g: AggFn,
    reps: usize,
    seed: u64,
    par: Parallelism,
) -> BootstrapResult {
    assert!(
        !d1.is_empty() && !d2.is_empty(),
        "datasets must be non-empty"
    );
    let (n1, n2) = (d1.len(), d2.len());
    let (t1, t2) = (miner.params().min_count(n1), miner.params().min_count(n2));
    if t1.max(t2) > MAX_THRESHOLD_RATIO * t1.min(t2) {
        let stat = |a: &TransactionSet, b: &TransactionSet| {
            let (ma, mb) = (miner.mine(a), miner.mine(b));
            deviate::<LitsFamily>(&ma, a, &mb, b, f, g, Parallelism::Sequential).value
        };
        return qualify(d1, d2, stat(d1, d2), reps, seed, par, stat);
    }
    let pool = d1.concat(d2);
    let frequent = miner.mine_counts(&CountSource::borrowed(&pool), t1.min(t2));
    let walk = Walk {
        trie: &PooledTrie::new(frequent, &pool),
        n: [n1, n2],
        t: [t1, t2],
        f,
        g,
    };
    let observed = walk.deviation(&(0..n1).collect::<Vec<_>>());
    let null = split_null(n1, n2, reps, seed, par, |i1, _| walk.deviation(i1));
    BootstrapResult::new(observed, null)
}

/// The pool's frequent itemsets in canonical order (a preorder of their
/// prefix trie), reduced to what a walk reads, and the tid bitsets of the
/// pool's frequent items.
struct PooledTrie {
    /// Per itemset: its length, its last item's tid row, its pool count
    /// and the position just past its subtree (the next itemset that does
    /// not extend it).
    nodes: Vec<Node>,
    /// The longest itemset's length.
    depth: usize,
    /// Words per tid row: `⌈pool rows / 64⌉`.
    words: usize,
    /// One tid row per frequent item, in item order: bit `r` of row `j`
    /// is set iff pool row `r` contains the `j`-th frequent item. Only
    /// frequent items get a row, so the bitsets are bounded by the pool's
    /// size over the mining count, not by the declared item universe
    /// (building them takes 4 bytes per item id up to the largest frequent
    /// one).
    tids: Vec<u64>,
}

struct Node {
    len: usize,
    row: usize,
    count: u64,
    end: usize,
}

impl PooledTrie {
    fn new(mut frequent: Vec<(Itemset, u64)>, pool: &TransactionSet) -> Self {
        frequent.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        // Every item of a frequent itemset is a frequent singleton, and
        // the singletons are in item order among the sorted itemsets.
        let items: Vec<u32> = frequent
            .iter()
            .filter(|(x, _)| x.len() == 1)
            .map(|(x, _)| x.items()[0])
            .collect();
        // rank[item] = the item's tid row, for ids up to the largest
        // frequent item; NONE for an infrequent item.
        const NONE: u32 = u32::MAX;
        let mut rank = vec![NONE; items.last().map_or(0, |&x| x as usize + 1)];
        for (j, &item) in items.iter().enumerate() {
            rank[item as usize] = j as u32;
        }
        let words = pool.len().div_ceil(64);
        let mut tids = vec![0u64; items.len() * words];
        for (r, txn) in pool.iter().enumerate() {
            for &item in txn {
                if let Some(&j) = rank.get(item as usize).filter(|&&j| j != NONE) {
                    tids[j as usize * words + r / 64] |= 1 << (r % 64);
                }
            }
        }
        let mut nodes: Vec<Node> = frequent
            .iter()
            .map(|(x, count)| {
                let last = x.items().last().expect("no empty itemset is mined");
                Node {
                    len: x.len(),
                    row: rank[*last as usize] as usize,
                    count: *count,
                    end: frequent.len(),
                }
            })
            .collect();
        // Each itemset's subtree ends at the next itemset no longer than
        // it. Downward closure puts every prefix of an itemset before it,
        // so an itemset is one longer than the last shorter one.
        let mut open: Vec<usize> = Vec::new();
        for i in 0..nodes.len() {
            while let Some(&top) = open.last() {
                if nodes[top].len < nodes[i].len {
                    break;
                }
                nodes[top].end = i;
                open.pop();
            }
            debug_assert_eq!(nodes[i].len, open.len() + 1, "every prefix is frequent");
            open.push(i);
        }
        let depth = nodes.iter().map(|x| x.len).max().unwrap_or(0);
        Self {
            nodes,
            depth,
            words,
            tids,
        }
    }
}

/// One replicate's walk of the pooled trie over its tid bitsets.
struct Walk<'a> {
    trie: &'a PooledTrie,
    /// Rows and count thresholds of the two sides.
    n: [usize; 2],
    t: [u64; 2],
    f: DiffFn,
    g: AggFn,
}

impl Walk<'_> {
    /// δ between the pool rows `side1` (ascending) and the rest.
    fn deviation(&self, side1: &[usize]) -> f64 {
        let w = self.trie.words;
        // stack[k] = side-1 mask ∧ tids(the current length-k prefix).
        let mut stack = vec![0u64; (self.trie.depth + 1) * w];
        for &r in side1 {
            stack[r / 64] |= 1 << (r % 64);
        }
        let [n1, n2] = self.n;
        let [t1, t2] = self.t;
        let (mut m1, mut m2) = (Vec::new(), Vec::new());
        let nodes = &self.trie.nodes;
        let mut i = 0;
        while i < nodes.len() {
            let x = &nodes[i];
            let (above, below) = stack.split_at_mut(x.len * w);
            let prefix = &above[(x.len - 1) * w..];
            let tids = &self.trie.tids[x.row * w..(x.row + 1) * w];
            let mut c1 = 0u64;
            for ((out, &p), &b) in below[..w].iter_mut().zip(prefix).zip(tids) {
                *out = p & b;
                c1 += u64::from(out.count_ones());
            }
            let c2 = x.count - c1;
            if c1 >= t1 || c2 >= t2 {
                m1.push(c1 as f64 / n1 as f64);
                m2.push(c2 as f64 / n2 as f64);
                i += 1;
            } else {
                i = x.end;
            }
        }
        let seq = Parallelism::Sequential;
        let (n1, n2) = (n1 as u64, n2 as u64);
        fold_measures::<LitsFamily>(&m1, &m2, n1, n2, self.f, self.g, seq, |_| true).0
    }
}
