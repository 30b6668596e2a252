//! **Matrix baseline** — screened vs full-scan deviation-matrix timings
//! for all three model families, recorded PR-over-PR in
//! `BENCH_matrix.json`:
//!
//! ```text
//! cargo run --release -p focus-bench --bin matrix_baseline -- --threads 4 > BENCH_matrix.json
//! ```
//!
//! One JSON object per (family, regime) lands on stdout; the human table
//! goes to stderr. Per family the binary builds the two-process snapshot
//! collection of `focus_bench::collections`, picks the median pair bound
//! as the screening threshold, and times
//!
//! * `full_scan` — threshold 0: every pair pays the exact GCR scan;
//! * `screened` — median threshold: δ* bounds first, exact scans only
//!   for the surviving pairs.
//!
//! Each regime runs `--samples` times (default 15); the recorded time is
//! the minimum (the usual low-noise estimator for a deterministic
//! computation). The prune fraction is exact and sample-independent:
//! screening decisions are deterministic and bit-identical across thread
//! counts.

use focus_bench::collections::{cluster_collection, dt_collection, lits_collection, median_bound};
use focus_bench::{timed, ExpConfig};
use focus_core::family::ModelFamily;
use focus_exec::Parallelism;
use focus_registry::{deviation_matrix, DeviationMatrix, MatrixParams};

struct Row {
    family: &'static str,
    regime: &'static str,
    threshold: f64,
    scanned: usize,
    pruned: usize,
    n_pairs: usize,
    secs: f64,
}

fn run_family<F: ModelFamily>(
    family: &'static str,
    models: &[F::Model],
    datasets: &[F::Dataset],
    names: &[String],
    samples: usize,
    rows: &mut Vec<Row>,
) where
    F::Model: Sync,
    F::Dataset: Sync,
{
    let probe = deviation_matrix::<F>(
        models,
        datasets,
        names.to_vec(),
        &MatrixParams {
            threshold: f64::INFINITY,
            par: Parallelism::Sequential,
            ..MatrixParams::default()
        },
    )
    .expect("valid params");
    let mid = median_bound(&probe);

    for (regime, threshold) in [("full_scan", 0.0), ("screened", mid)] {
        let params = MatrixParams {
            threshold,
            par: Parallelism::Global,
            ..MatrixParams::default()
        };
        let mut best: Option<(DeviationMatrix, f64)> = None;
        for _ in 0..samples {
            let (m, secs) = timed(|| {
                deviation_matrix::<F>(models, datasets, names.to_vec(), &params)
                    .expect("valid params")
            });
            if best.as_ref().is_none_or(|(_, b)| secs < *b) {
                best = Some((m, secs));
            }
        }
        let (m, secs) = best.expect("samples >= 2");
        rows.push(Row {
            family,
            regime,
            threshold,
            scanned: m.scanned(),
            pruned: m.pruned(),
            n_pairs: m.n_pairs(),
            secs,
        });
    }
}

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let mut rows = Vec::new();

    let (models, datasets, names) = lits_collection();
    run_family::<focus_core::family::LitsFamily>(
        "lits",
        &models,
        &datasets,
        &names,
        cfg.samples,
        &mut rows,
    );
    let (models, datasets, names) = dt_collection();
    run_family::<focus_core::family::DtFamily>(
        "dt",
        &models,
        &datasets,
        &names,
        cfg.samples,
        &mut rows,
    );
    let (models, datasets, names) = cluster_collection();
    run_family::<focus_core::family::ClusterFamily>(
        "cluster",
        &models,
        &datasets,
        &names,
        cfg.samples,
        &mut rows,
    );

    // JSON lines to stdout (the `BENCH_matrix.json` payload), the human
    // table to stderr so a redirect stays machine-readable.
    eprintln!(
        "{:>8}  {:>9}  {:>9}  {:>5}  {:>7}  {:>6}  {:>6}  {:>8}",
        "Family", "Regime", "Threshold", "Pairs", "Scanned", "Pruned", "Prune%", "Best s"
    );
    for r in &rows {
        let frac = r.pruned as f64 / r.n_pairs as f64;
        println!(
            "{{\"bench\":\"matrix\",\"family\":\"{}\",\"regime\":\"{}\",\"threshold\":{},\
             \"pairs\":{},\"scanned\":{},\"pruned\":{},\"prune_fraction\":{:.4},\"secs\":{:.6}}}",
            r.family, r.regime, r.threshold, r.n_pairs, r.scanned, r.pruned, frac, r.secs
        );
        eprintln!(
            "{:>8}  {:>9}  {:>9.4}  {:>5}  {:>7}  {:>6}  {:>6.2}  {:>8.4}",
            r.family, r.regime, r.threshold, r.n_pairs, r.scanned, r.pruned, frac, r.secs
        );
    }
}
