//! **Matrix baseline** — screened vs full-scan deviation-matrix timings
//! for all three model families, recorded PR-over-PR in
//! `BENCH_matrix.json`. The thread sweep is one run per thread count:
//!
//! ```text
//! for t in 1 2; do
//!   cargo run --release -p focus-bench --bin matrix_baseline -- --threads $t
//! done > BENCH_matrix.json
//! ```
//!
//! One JSON object per (family, regime) lands on stdout; the human table
//! goes to stderr. Per family the binary builds the two-process snapshot
//! collection of `focus_bench::collections`, picks the median pair bound
//! as the screening threshold, and times
//!
//! * `full_scan` — threshold 0: every pair pays the exact GCR scan;
//! * `screened` — median threshold: δ* bounds first, exact scans only
//!   for the surviving pairs;
//! * `bounds_only` — threshold `+∞`: the model-only δ* sweep alone, with
//!   no exact scan (the "Time for δ*" column of Figure 13).
//!
//! Each regime runs `--samples` times (default 15); the recorded time is
//! the minimum (the usual low-noise estimator for a deterministic
//! computation). The prune fraction is exact and sample-independent:
//! screening decisions are deterministic and bit-identical across thread
//! counts. The `bounds_only` row's threshold is JSON `null`, since JSON
//! has no infinity. Every row is stamped with the worker-thread count
//! and the git commit it ran at.
//!
//! The binary also asserts what the timings rest on, and exits non-zero
//! if any of it fails:
//!
//! * each regime's matrix, recomputed on one thread, prunes the same
//!   pairs and holds the same cells bit for bit;
//! * every cell a screened regime scans equals the full scan's bit for
//!   bit, and every regime's bounds equal the full scan's;
//! * δ* ≥ δ on every scanned `f_a` cell (within `1e-12`).

use focus_bench::collections::{cluster_collection, dt_collection, lits_collection, median_bound};
use focus_bench::{git_commit, timed, ExpConfig};
use focus_core::family::{ClusterFamily, DtFamily, LitsFamily, ModelFamily};
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
    (models, datasets, names): (Vec<F::Model>, Vec<F::Dataset>, Vec<String>),
    samples: usize,
    rows: &mut Vec<Row>,
) {
    let (models, datasets) = (&models[..], &datasets[..]);
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
    let n = models.len();
    let cell =
        |m: &DeviationMatrix, i, j| (m.bound(i, j).to_bits(), m.exact(i, j).map(f64::to_bits));
    let mut full: Option<DeviationMatrix> = None;

    for (regime, threshold) in [
        ("full_scan", 0.0),
        ("screened", mid),
        ("bounds_only", f64::INFINITY),
    ] {
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
        let sequential = MatrixParams {
            par: Parallelism::Sequential,
            ..params
        };
        let seq = deviation_matrix::<F>(models, datasets, names.to_vec(), &sequential)
            .expect("valid params");
        assert_eq!(seq.pruned(), m.pruned(), "{family} {regime}: prune count");
        let full = full.get_or_insert_with(|| m.clone());
        for (i, j) in (0..n).flat_map(|i| (i + 1..n).map(move |j| (i, j))) {
            assert_eq!(
                cell(&seq, i, j),
                cell(&m, i, j),
                "{family} {regime} ({i}, {j})"
            );
            let (bound, exact) = cell(&m, i, j);
            let (full_bound, full_exact) = cell(full, i, j);
            assert_eq!(bound, full_bound, "{family} {regime} ({i}, {j}): bound");
            assert!(
                exact.is_none() || exact == full_exact,
                "{family} {regime} ({i}, {j})"
            );
            if let Some(e) = m.exact(i, j) {
                assert!(
                    e <= m.bound(i, j) + 1e-12,
                    "{family} ({i}, {j}): δ {e} > δ*"
                );
            }
        }
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
    let threads = focus_exec::global_threads();
    let commit = git_commit();
    let mut rows = Vec::new();

    run_family::<LitsFamily>("lits", lits_collection(), cfg.samples, &mut rows);
    run_family::<DtFamily>("dt", dt_collection(), cfg.samples, &mut rows);
    run_family::<ClusterFamily>("cluster", cluster_collection(), cfg.samples, &mut rows);

    // JSON lines to stdout (the `BENCH_matrix.json` payload), the human
    // table to stderr so a redirect stays machine-readable.
    eprintln!(
        "{:>8}  {:>11}  {:>9}  {:>5}  {:>7}  {:>6}  {:>6}  {:>8}",
        "Family", "Regime", "Threshold", "Pairs", "Scanned", "Pruned", "Prune%", "Best s"
    );
    for r in &rows {
        let frac = r.pruned as f64 / r.n_pairs as f64;
        // JSON has no infinity: the `bounds_only` threshold is `null`.
        let threshold = if r.threshold.is_finite() {
            r.threshold.to_string()
        } else {
            "null".to_string()
        };
        println!(
            "{{\"bench\":\"matrix\",\"family\":\"{}\",\"regime\":\"{}\",\"threshold\":{},\
             \"pairs\":{},\"scanned\":{},\"pruned\":{},\"prune_fraction\":{:.4},\"secs\":{:.6},\
             \"threads\":{},\"commit\":\"{}\"}}",
            r.family,
            r.regime,
            threshold,
            r.n_pairs,
            r.scanned,
            r.pruned,
            frac,
            r.secs,
            threads,
            commit
        );
        eprintln!(
            "{:>8}  {:>11}  {:>9.4}  {:>5}  {:>7}  {:>6}  {:>6.2}  {:>8.4}",
            r.family, r.regime, r.threshold, r.n_pairs, r.scanned, r.pruned, frac, r.secs
        );
    }
}
