//! **Counting baseline** — the lits counting engine's arms compared at
//! three sparse dataset scales plus a dense scale, recorded PR-over-PR in
//! `BENCH_counting.json`:
//!
//! ```text
//! cargo run --release -p focus-bench --bin counting_baseline -- --threads 4 >> BENCH_counting.json
//! ```
//!
//! Per scale the binary generates a dataset, mines its frequent itemsets
//! once (the realistic counting workload: the measure extension re-counts
//! a model's itemsets against another dataset), and times the ways of
//! counting every itemset's support. Each row changes one factor against
//! the row before it:
//!
//! * `bitmap_scan` — the reference horizontal scan, `count_itemsets`
//!   (one membership bitmap per transaction, subset test per itemset);
//! * `horizontal` — the engine's horizontal arm: a budget-0
//!   [`focus_core::source::CountSource`], which walks each transaction
//!   along the workload's prefixes instead of testing every itemset;
//! * `vertical` — the vertical arm from cold: tid-bitset index build plus
//!   batched prefix-run counting;
//! * `vertical_warm` — the same batched counting over a prebuilt index
//!   (build excluded): the per-call cost once a source's cache is hot.
//!
//! A further pair of rows measures **index reuse** — the matrix-run
//! regime, where the same snapshot is re-counted once per surviving
//! pair:
//!
//! * `vertical_rebuild_x4` — four `vertical` scans, each rebuilding the
//!   index from scratch;
//! * `source_cached_x4` — four scans through one shared `CountSource`
//!   handle, which builds its index lazily at most once and serves the
//!   remaining scans from the cache.
//!
//! For the reuse rows `speedup_vs_bitmap` compares against four
//! horizontal scans — the bitmap cost of the same workload.
//!
//! A last pair of rows measures **Apriori's level 2**: every pair of the
//! scale's frequent singletons, counted and filtered at the mining
//! threshold. Their `itemsets` field is the pair count C(f, 2), and
//! `speedup_vs_bitmap` compares against one bitmap scan of those pairs:
//!
//! * `pairs_vertical` — the pairs as one [`CountSource::counts`] workload
//!   over a cold index, the path level 2 takes on an index-backed source;
//! * `pairs_blocked` — the blocked triangular pass,
//!   [`CountSource::frequent_pairs`], the path level 2 takes whenever the
//!   source holds rows.
//!
//! The sparse scales use the paper's association generator; the `dense`
//! scale is an independent-Bernoulli dataset at 0.7 fill over 32 items,
//! whose mined workload (triples at minsup 0.3) has deep shared prefixes.
//!
//! All rows must (and are asserted to) produce identical `u64` counts.
//! Each regime runs `--samples` times; the recorded time is the minimum.
//! One JSON object per (scale, row) lands on stdout — with `threads` and
//! `commit` machine-context fields — and the human table goes to stderr.

use focus_bench::{git_commit, timed, ExpConfig};
use focus_core::data::TransactionSet;
use focus_core::model::count_itemsets;
use focus_core::region::Itemset;
use focus_core::source::{CountSource, DEFAULT_INDEX_BUDGET};
use focus_core::vertical::{count_itemsets_grouped, VerticalIndex};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scans per reuse row — stands in for a matrix run's repeated re-counts
/// of one snapshot (one per surviving pair).
const REUSE_SCANS: usize = 4;

struct Row {
    scale: &'static str,
    transactions: usize,
    itemsets: usize,
    backend: &'static str,
    secs: f64,
    speedup_vs_bitmap: f64,
}

/// Runs one counting path `samples` times, checks every run against the
/// reference counts, and returns the minimum elapsed seconds.
fn best_of<T: PartialEq + std::fmt::Debug>(
    samples: usize,
    reference: &[T],
    mut run: impl FnMut() -> Vec<T>,
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let (counts, secs) = timed(&mut run);
        assert_eq!(counts, reference, "counting paths disagree");
        best = best.min(secs);
    }
    best
}

/// An independent-Bernoulli dense dataset: every item present with the
/// given probability.
fn dense_transactions(n: usize, n_items: u32, density: f64, seed: u64) -> TransactionSet {
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

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let par = Parallelism::Global;
    let base = cfg.rows(250_000);
    let threads = par.threads();
    let commit = git_commit();
    let mut rows = Vec::new();

    // (scale, dataset, mining params): the sparse scales carry the
    // paper-shaped association workload; the dense scale a triple-heavy
    // mined workload.
    let scales: Vec<(&'static str, TransactionSet, AprioriParams)> = vec![
        ("small", AprioriParams::with_minsup(0.01), base),
        ("medium", AprioriParams::with_minsup(0.01), base * 4),
        ("large", AprioriParams::with_minsup(0.01), base * 16),
    ]
    .into_iter()
    .map(|(scale, params, n)| {
        let gen = AssocGen::new(AssocGenParams::paper(500, 4.0), cfg.seed);
        (
            scale,
            gen.generate(n, cfg.seed + 1),
            params.max_len(10).min_count_floor(2),
        )
    })
    .chain(std::iter::once((
        "dense",
        dense_transactions(base * 16, 32, 0.7, cfg.seed + 7),
        AprioriParams::with_minsup(0.3)
            .max_len(4)
            .min_count_floor(2),
    )))
    .collect();

    for (scale, data, mine_params) in scales {
        // The realistic workload: a mined model's itemsets, re-counted the
        // way the measure-extension step re-counts them against a second
        // dataset.
        let model = Apriori::new(mine_params).mine(&data);
        let min_count = ((mine_params.minsup * data.len() as f64).ceil() as u64)
            .max(mine_params.min_count_floor);
        let itemsets = model.itemsets().to_vec();
        let reference = count_itemsets(&data, &itemsets, par);

        let bitmap_secs = best_of(cfg.samples, &reference, || {
            count_itemsets(&data, &itemsets, par)
        });
        let horizontal_secs = best_of(cfg.samples, &reference, || {
            CountSource::borrowed(&data)
                .with_index_budget(0)
                .counts(&itemsets, par)
        });
        let vertical_secs = best_of(cfg.samples, &reference, || {
            let index = VerticalIndex::build(&data);
            count_itemsets_grouped(&index, &itemsets, par)
        });
        let warm_index = VerticalIndex::build(&data);
        let warm_secs = best_of(cfg.samples, &reference, || {
            count_itemsets_grouped(&warm_index, &itemsets, par)
        });

        // Reuse regime: the same itemsets re-counted REUSE_SCANS times,
        // once rebuilding the index per scan, once through a shared
        // CountSource whose cache pays the build exactly once.
        let rebuild_secs = best_of(cfg.samples, &reference, || {
            let mut counts = Vec::new();
            for _ in 0..REUSE_SCANS {
                let index = VerticalIndex::build(&data);
                counts = count_itemsets_grouped(&index, &itemsets, par);
            }
            counts
        });
        let cached_secs = best_of(cfg.samples, &reference, || {
            let source = CountSource::borrowed(&data).with_index_budget(DEFAULT_INDEX_BUDGET);
            let mut counts = Vec::new();
            for _ in 0..REUSE_SCANS {
                counts = source.counts(&itemsets, par);
            }
            counts
        });

        // Level 2: every pair of the frequent singletons, filtered at the
        // mining threshold.
        let items: Vec<u32> = itemsets
            .iter()
            .filter(|s| s.len() == 1)
            .map(|s| s.items()[0])
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
        let (pairs_reference, pairs_bitmap_secs) =
            timed(|| frequent(count_itemsets(&data, &pairs, par)));
        let pairs_vertical_secs = best_of(cfg.samples, &pairs_reference, || {
            let source = CountSource::from_index(VerticalIndex::build(&data));
            frequent(source.counts(&pairs, par))
        });
        let pairs_blocked_secs = best_of(cfg.samples, &pairs_reference, || {
            CountSource::borrowed(&data)
                .frequent_pairs(&items, min_count, par)
                .expect("a row-backed source runs the pass")
        });

        for (backend, workload, secs, bitmap) in [
            ("bitmap_scan", itemsets.len(), bitmap_secs, bitmap_secs),
            ("horizontal", itemsets.len(), horizontal_secs, bitmap_secs),
            ("vertical", itemsets.len(), vertical_secs, bitmap_secs),
            ("vertical_warm", itemsets.len(), warm_secs, bitmap_secs),
            (
                "vertical_rebuild_x4",
                itemsets.len(),
                rebuild_secs,
                bitmap_secs * REUSE_SCANS as f64,
            ),
            (
                "source_cached_x4",
                itemsets.len(),
                cached_secs,
                bitmap_secs * REUSE_SCANS as f64,
            ),
            (
                "pairs_vertical",
                pairs.len(),
                pairs_vertical_secs,
                pairs_bitmap_secs,
            ),
            (
                "pairs_blocked",
                pairs.len(),
                pairs_blocked_secs,
                pairs_bitmap_secs,
            ),
        ] {
            rows.push(Row {
                scale,
                transactions: data.len(),
                itemsets: workload,
                backend,
                secs,
                speedup_vs_bitmap: bitmap / secs,
            });
        }
    }

    // JSON lines to stdout (the `BENCH_counting.json` payload), the human
    // table to stderr so a redirect stays machine-readable.
    eprintln!(
        "{:>7}  {:>12}  {:>8}  {:>18}  {:>10}  {:>8}",
        "Scale", "Transactions", "Itemsets", "Backend", "Best s", "Speedup"
    );
    for r in &rows {
        println!(
            "{{\"bench\":\"counting\",\"scale\":\"{}\",\"transactions\":{},\"itemsets\":{},\
             \"backend\":\"{}\",\"secs\":{:.6},\"speedup_vs_bitmap\":{:.2},\
             \"threads\":{},\"commit\":\"{}\"}}",
            r.scale,
            r.transactions,
            r.itemsets,
            r.backend,
            r.secs,
            r.speedup_vs_bitmap,
            threads,
            commit
        );
        eprintln!(
            "{:>7}  {:>12}  {:>8}  {:>18}  {:>10.4}  {:>7.2}x",
            r.scale, r.transactions, r.itemsets, r.backend, r.secs, r.speedup_vs_bitmap
        );
    }
}
