//! Registry storage baseline — records `BENCH_registry.json`. The thread
//! sweep is one run per thread count:
//!
//! ```text
//! for t in 1 2; do
//!   cargo run --release -p focus-bench --bin registry_baseline -- --threads $t
//! done > BENCH_registry.json
//! ```
//!
//! Two regimes, each row's `layer` named `<regime>.<path>`:
//!
//! * **load** — one lits snapshot (transactions + mined model) per scale,
//!   persisted as standalone text files and in the binary columnar format
//!   registries store, then loaded back through each path: the text
//!   readers (`load.text`, kept because standalone files are still
//!   text), an owned `read`-to-`Vec` binary decode (`load.bin`), and the
//!   memory-mapped zero-copy decode (`load.mmap`,
//!   [`focus_registry::MappedBytes::open`]). Every decoded artifact is
//!   equality-checked against the in-memory original before its timing is
//!   accepted.
//! * **matrix** — the same snapshot collection in a flat registry
//!   (`matrix.flat`, the baseline) and a 4-shard one (`matrix.sharded`),
//!   timing [`Registry::matrix_of`] end to end (manifest + model +
//!   dataset IO plus the deviation scans). Both must reproduce
//!   [`deviation_matrix`] over the in-memory snapshots exactly.
//!
//! One JSON object per row lands on stdout, with the fields `bench`,
//! `layer`, `scale`, `threads`, `commit` and `secs` (the best of
//! `--samples` runs), then the row's counters: `txns`, `bytes` and
//! `mmap_active` (1 when loads are memory-mapped), plus `scanned` and
//! `pruned` for matrix rows. The human table on stderr adds `speedup`:
//! the regime's first row's seconds over this row's.

use focus_bench::{git_commit, timed, ExpConfig};
use focus_core::data::TransactionSet;
use focus_core::family::LitsFamily;
use focus_core::model::LitsModel;
use focus_core::persist::{read_lits_model, write_lits_model};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::io::{read_transactions, write_transactions};
use focus_mining::{Apriori, AprioriParams};
use focus_registry::binfmt::{
    decode_lits_model, decode_transactions, encode_lits_model, encode_transactions,
};
use focus_registry::{
    deviation_matrix, mmap_active, MappedBytes, MatrixParams, Registry, RegistryLayout,
};
use std::fs::File;
use std::path::{Path, PathBuf};

const MINSUP: f64 = 0.05;

struct Row {
    layer: &'static str,
    secs: f64,
    /// The regime's first row's seconds over this row's.
    speedup: f64,
    counters: Vec<(&'static str, u64)>,
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus-registry-baseline-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn snapshot(n_txns: usize, pattern_seed: u64, seed: u64) -> (TransactionSet, LitsModel) {
    let data = AssocGen::new(AssocGenParams::paper(500, 4.0), pattern_seed).generate(n_txns, seed);
    let model = Apriori::new(AprioriParams::with_minsup(MINSUP).max_len(6)).mine(&data);
    (data, model)
}

/// Best-of-`samples` minimum of a load routine, checking each result
/// against the in-memory originals so a wrong read can never post a time.
fn best_of(
    samples: usize,
    data: &TransactionSet,
    model: &LitsModel,
    load: impl Fn() -> (TransactionSet, LitsModel),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let ((d, m), secs) = timed(&load);
        assert_eq!(&d, data, "loaded dataset differs from the original");
        assert_eq!(&m, model, "loaded model differs from the original");
        best = best.min(secs);
    }
    best
}

/// The text vs binary vs mmap load comparison at one scale.
fn run_load(dir: &Path, n_txns: usize, samples: usize, rows: &mut Vec<Row>) {
    let (data, model) = snapshot(n_txns, 1, 100 + n_txns as u64);

    let data_txt = dir.join(format!("{n_txns}.txt"));
    let model_txt = dir.join(format!("{n_txns}.model"));
    write_transactions(&data, File::create(&data_txt).unwrap()).unwrap();
    write_lits_model(&model, File::create(&model_txt).unwrap()).unwrap();
    let data_bin = dir.join(format!("{n_txns}.bin"));
    let model_bin = dir.join(format!("{n_txns}.model.bin"));
    std::fs::write(&data_bin, encode_transactions(&data)).unwrap();
    std::fs::write(&model_bin, encode_lits_model(&model)).unwrap();

    let text_bytes = data_txt.metadata().unwrap().len() + model_txt.metadata().unwrap().len();
    let bin_bytes = data_bin.metadata().unwrap().len() + model_bin.metadata().unwrap().len();

    let text = best_of(samples, &data, &model, || {
        (
            read_transactions(File::open(&data_txt).unwrap()).unwrap(),
            read_lits_model(File::open(&model_txt).unwrap()).unwrap(),
        )
    });
    let owned = best_of(samples, &data, &model, || {
        (
            decode_transactions(&MappedBytes::read_owned(&data_bin).unwrap()).unwrap(),
            decode_lits_model(&MappedBytes::read_owned(&model_bin).unwrap()).unwrap(),
        )
    });
    let mmap = best_of(samples, &data, &model, || {
        (
            decode_transactions(&MappedBytes::open(&data_bin).unwrap()).unwrap(),
            decode_lits_model(&MappedBytes::open(&model_bin).unwrap()).unwrap(),
        )
    });

    for (layer, bytes, secs) in [
        ("load.text", text_bytes, text),
        ("load.bin", bin_bytes, owned),
        ("load.mmap", bin_bytes, mmap),
    ] {
        rows.push(Row {
            layer,
            secs,
            speedup: text / secs,
            counters: vec![("txns", n_txns as u64), ("bytes", bytes)],
        });
    }
}

/// End-to-end `matrix_of` wall time over a flat and a sharded registry,
/// each checked against `deviation_matrix` over the in-memory snapshots.
fn run_matrix(dir: &Path, n_txns: usize, samples: usize, rows: &mut Vec<Row>) {
    let names: Vec<String> = (0..6).map(|i| format!("snap-{i}")).collect();
    let (datasets, models): (Vec<TransactionSet>, Vec<LitsModel>) = (0..6u64)
        .map(|i| snapshot(n_txns, 1 + (i % 2) * 8, 200 + i))
        .unzip();
    let params = MatrixParams::default();
    let reference =
        deviation_matrix::<LitsFamily>(&models, &datasets, names.clone(), &params).unwrap();
    let mut baseline = None;
    for (layer, shards) in [("matrix.flat", 0), ("matrix.sharded", 4)] {
        let root = dir.join(layer);
        let layout = RegistryLayout {
            shards,
            ..RegistryLayout::default()
        };
        let mut reg = Registry::open_or_create_with(&root, layout).unwrap();
        for ((name, data), model) in names.iter().zip(&datasets).zip(&models) {
            reg.add_snapshot::<LitsFamily>(name, data, model).unwrap();
        }
        let reg = Registry::open(&root).unwrap();
        let mut best = f64::INFINITY;
        for _ in 0..samples.max(1) {
            let (matrix, secs) = timed(|| reg.matrix_of::<LitsFamily>(&params).unwrap());
            assert_eq!(
                (matrix.scanned(), matrix.pruned()),
                (reference.scanned(), reference.pruned()),
                "{layer}: scan/prune counts diverge from the in-memory matrix"
            );
            for i in 0..names.len() {
                for j in 0..names.len() {
                    assert_eq!(
                        matrix.exact(i, j).map(f64::to_bits),
                        reference.exact(i, j).map(f64::to_bits),
                        "{layer}: exact({i},{j}) diverges from the in-memory matrix"
                    );
                }
            }
            best = best.min(secs);
        }
        let flat_secs = *baseline.get_or_insert(best);
        rows.push(Row {
            layer,
            secs: best,
            speedup: flat_secs / best,
            counters: vec![
                ("txns", (n_txns * names.len()) as u64),
                ("scanned", reference.scanned() as u64),
                ("pruned", reference.pruned() as u64),
            ],
        });
    }
}

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let dir = scratch();

    // Paper-fraction scales: `--scale 0.02` (the default) makes the
    // largest snapshot 20K transactions of the paper's 1M-row base.
    let base = ((1_000_000.0 * cfg.scale) as usize).max(100);
    let scales = [base / 10, base / 3, base];

    let mut rows = Vec::new();
    for n in scales {
        run_load(&dir, n, cfg.samples, &mut rows);
    }
    run_matrix(&dir, base / 5, cfg.samples, &mut rows);
    std::fs::remove_dir_all(&dir).ok();

    // JSON lines to stdout (the `BENCH_registry.json` payload), the
    // human table to stderr so a redirect stays machine-readable.
    let threads = focus_exec::global_threads();
    let commit = git_commit();
    let mmap = u64::from(mmap_active());
    eprintln!(
        "{:>24}  {:>7}  {:>10}  {:>8}  counters",
        "Layer", "Threads", "Best s", "Speedup"
    );
    for r in &rows {
        let counters: String = r
            .counters
            .iter()
            .chain(&[("mmap_active", mmap)])
            .map(|(k, v)| format!(",\"{k}\":{v}"))
            .collect();
        println!(
            "{{\"bench\":\"registry\",\"layer\":\"{}\",\"scale\":{},\"threads\":{threads},\
             \"commit\":\"{commit}\",\"secs\":{:.6}{counters}}}",
            r.layer, cfg.scale, r.secs
        );
        eprintln!(
            "{:>24}  {threads:>7}  {:>10.6}  {:>8.2}  {}",
            r.layer,
            r.secs,
            r.speedup,
            &counters[1..]
        );
    }
}
