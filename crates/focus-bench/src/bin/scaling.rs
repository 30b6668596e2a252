//! **Scaling** — wall time of the parallel execution engine's hot paths,
//! recorded as one row per operation in `BENCH_scaling.json`. The thread
//! sweep is one run per thread count:
//!
//! ```text
//! for t in 1 2; do
//!   cargo run --release -p focus-bench --bin scaling -- --threads $t
//! done > BENCH_scaling.json
//! ```
//!
//! The nine operations, each at `Parallelism::Global`:
//!
//! * `count_itemsets`, `count_partition`, `count_boxes` — the three
//!   chunked dataset scans (itemset counting over a mined model's
//!   itemsets, partition routing through a prebuilt leaf index, box
//!   counting), over `--scale` × 1M rows (20k at the default scale).
//!   `count_partition` and `count_boxes` take 0.5–0.9 ms per run at the
//!   default scale, too short to show routing cost: in one alternating
//!   run they moved ±20 % while an unchanged row moved 27 %. A box-routing
//!   change is measured by `dt_scan`, not by these two rows;
//! * `dt_scan` — the exact scan of one dt matrix pair: `DtFamily::measures`
//!   of an F2 tree and an F3 tree (each fitted with the CLI's default
//!   parameters to its own `gen-class` table, 5 % label noise) over the F2
//!   table, `--scale` × 2.5M rows (50k at the default scale, where the
//!   trees have about 140 leaves each);
//! * `dt_matrix` — a full screened `deviation_matrix::<DtFamily>` (every
//!   pair scanned) over 6 snapshots alternating F2 and F3, each fitted
//!   like `dt_scan`'s trees, `--scale` × 2.5M rows each;
//! * `lits_matrix` — an all-pairs `DiffFn::Scaled` matrix (`--f fs`, which
//!   screening never prunes) over 10 lits snapshots from two alternating
//!   `gen-assoc` pattern sets, each mined like the CLI at minsup 0.005,
//!   `--scale` × 1M rows each (20k at the default scale);
//! * `qualify` — the bootstrap per-replicate fan-out of Section 3.4: each
//!   of 8 replicates re-mines both pseudo-datasets and deviates them, over
//!   two `--scale` × 100k-row datasets (2k at the default scale);
//! * `dt_fit` — greedy tree induction (parallel split search and sibling
//!   subtree forks);
//! * `kmeans_fit` — k-means Lloyd iterations (parallel assignment and
//!   fixed-order centroid folds).
//!
//! Results are bit-identical across thread counts (enforced by
//! `tests/parallel_equiv.rs`); only the wall clock moves. Each operation
//! runs `--samples` times and the recorded time is the minimum. One JSON
//! object per operation lands on stdout, with the fields `bench`, `layer`
//! (the operation), `scale`, `threads`, `commit` and `secs`; the human
//! table goes to stderr.

use focus_bench::{git_commit, timed, ExpConfig};
use focus_cluster::{KMeans, KMeansParams};
use focus_core::data::{LabeledTable, TransactionSet};
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::{DtFamily, LitsFamily, ModelFamily, Side};
use focus_core::model::{count_boxes, count_itemsets, count_partition, DtModel, LitsModel};
use focus_core::qualify::qualify;
use focus_core::region::{BoxBuilder, BoxIndex};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use focus_registry::{deviation_matrix, MatrixParams};
use focus_tree::{DecisionTree, TreeParams};
use std::hint::black_box;

/// The minimum elapsed seconds of `samples` runs of `op`.
fn best_of<T>(samples: usize, mut op: impl FnMut() -> T) -> f64 {
    (0..samples)
        .map(|_| timed(|| black_box(op())).1)
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let par = Parallelism::Global;
    let threads = focus_exec::global_threads();
    let commit = git_commit();
    let (big, small) = (cfg.rows(1_000_000), cfg.rows(100_000));
    // JSON lines to stdout (the `BENCH_scaling.json` payload), the human
    // table to stderr so a redirect stays machine-readable. Rows print as
    // each operation finishes.
    eprintln!(
        "{:>15}  {:>7}  {:>7}  {:>9}",
        "Op", "Scale", "Threads", "Best s"
    );
    let record = |layer: &str, secs: f64| {
        println!(
            "{{\"bench\":\"scaling\",\"layer\":\"{layer}\",\"scale\":{},\"threads\":{threads},\
             \"commit\":\"{commit}\",\"secs\":{secs:.6}}}",
            cfg.scale
        );
        eprintln!("{layer:>15}  {:>7}  {threads:>7}  {secs:>9.6}", cfg.scale);
    };

    // The chunked scans: a mined model's itemsets re-counted against its
    // dataset, and a labelled table routed through three age bands.
    let gen = AssocGen::new(AssocGenParams::paper(2000, 4.0), cfg.seed);
    let txns = gen.generate(big, cfg.seed + 1);
    let model = Apriori::new(AprioriParams::with_minsup(0.01).max_len(10)).mine(&txns);
    let itemsets = model.itemsets().to_vec();
    let labeled = ClassifyGen::new(ClassifyFn::F2).generate(big, cfg.seed + 2);
    let schema = labeled.table.schema().clone();
    let leaves = vec![
        BoxBuilder::new(&schema).lt("age", 40.0).build(),
        BoxBuilder::new(&schema).range("age", 40.0, 60.0).build(),
        BoxBuilder::new(&schema).ge("age", 60.0).build(),
    ];
    let index = BoxIndex::new(&leaves);
    record(
        "count_itemsets",
        best_of(cfg.samples, || count_itemsets(&txns, &itemsets, par)),
    );
    record(
        "count_partition",
        best_of(cfg.samples, || count_partition(&labeled, &index, 2, par)),
    );
    record(
        "count_boxes",
        best_of(cfg.samples, || count_boxes(&labeled.table, &leaves, par)),
    );

    // The exact scan of one dt matrix pair, routing every row through
    // both trees' leaves to its GCR cell.
    let dt_rows = cfg.rows(2_500_000);
    let table = |f, seed| ClassifyGen::new(f).noise(0.05).generate(dt_rows, seed);
    let (t2, t3) = (
        table(ClassifyFn::F2, cfg.seed + 6),
        table(ClassifyFn::F3, cfg.seed + 7),
    );
    let cli_params = TreeParams::default()
        .max_depth(10)
        .min_leaf((dt_rows / 200).max(5));
    let (m2, m3) = (
        DecisionTree::fit(&t2, cli_params).to_model(),
        DecisionTree::fit(&t3, cli_params).to_model(),
    );
    let gcr = DtFamily::gcr(&m2, &m3);
    record(
        "dt_scan",
        best_of(cfg.samples, || {
            DtFamily::measures(&gcr, &m2, &m3, &&t2, Side::Left, par)
        }),
    );

    // The exact phase of whole matrices: every dt pair, and every lits
    // pair under f_s.
    let names = |n: usize| (0..n).map(|k| format!("s{k}")).collect::<Vec<_>>();
    let dt_tables: Vec<LabeledTable> = (0..6u64)
        .map(|k| {
            let f = [ClassifyFn::F2, ClassifyFn::F3][k as usize % 2];
            table(f, cfg.seed + 10 + k)
        })
        .collect();
    let dt_models: Vec<DtModel> = dt_tables
        .iter()
        .map(|t| DecisionTree::fit(t, cli_params).to_model())
        .collect();
    record(
        "dt_matrix",
        best_of(cfg.samples, || {
            deviation_matrix::<DtFamily>(&dt_models, &dt_tables, names(6), &MatrixParams::default())
                .expect("valid parameters")
        }),
    );
    let lits_gens = [1, 2].map(|p| AssocGen::new(AssocGenParams::paper(2000, 4.0), cfg.seed + p));
    let lits_data: Vec<TransactionSet> = (0..10u64)
        .map(|k| lits_gens[k as usize % 2].generate(big, cfg.seed + 20 + k))
        .collect();
    let cli_miner = Apriori::new(
        AprioriParams::with_minsup(0.005)
            .max_len(10)
            .min_count_floor(2),
    );
    let lits_models: Vec<LitsModel> = lits_data.iter().map(|d| cli_miner.mine(d)).collect();
    let scaled = MatrixParams {
        diff: DiffFn::Scaled,
        ..MatrixParams::default()
    };
    record(
        "lits_matrix",
        best_of(cfg.samples, || {
            deviation_matrix::<LitsFamily>(&lits_models, &lits_data, names(10), &scaled)
                .expect("valid parameters")
        }),
    );

    // The bootstrap fan-out: the paper's full qualification pipeline,
    // mine both pseudo-datasets and deviate them, once per replicate.
    let d1 = gen.generate(small, cfg.seed + 3);
    let d2 = gen.generate(small, cfg.seed + 4);
    let miner = Apriori::new(
        AprioriParams::with_minsup(0.02)
            .max_len(10)
            .min_count_floor(3),
    );
    let pipeline = |a: &TransactionSet, b: &TransactionSet| {
        let (ma, mb) = (miner.mine(a), miner.mine(b));
        deviate::<LitsFamily>(
            &ma,
            a,
            &mb,
            b,
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Sequential,
        )
        .value
    };
    let observed = pipeline(&d1, &d2);
    record(
        "qualify",
        best_of(cfg.samples, || {
            qualify(&d1, &d2, observed, 8, cfg.seed, par, pipeline)
        }),
    );

    // Model induction.
    let tree_params = TreeParams::default().max_depth(8).min_leaf(20);
    record(
        "dt_fit",
        best_of(cfg.samples, || DecisionTree::fit(&labeled, tree_params)),
    );
    let km = KMeans::new(KMeansParams::new(8).seed(cfg.seed).max_iters(25));
    record(
        "kmeans_fit",
        best_of(cfg.samples, || km.fit(&labeled.table, par)),
    );
}
