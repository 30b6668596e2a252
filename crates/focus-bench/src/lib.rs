//! # focus-bench — experiment harness for the FOCUS paper
//!
//! One binary per table/figure of the paper's evaluation (Sections 6–7),
//! plus the baseline bins whose JSON rows are the repository's perf
//! record. Every paper binary prints the same rows or series the paper
//! reports, at a configurable scale.
//!
//! | binary        | reproduces                    |
//! |---------------|-------------------------------|
//! | `table1`      | Table 1 — lits sample-size significance (Wilcoxon) |
//! | `table2`      | Table 2 — dt sample-size significance (Wilcoxon)   |
//! | `fig7_9`      | Figures 7–9 — lits SD vs SF curves                 |
//! | `fig10_12`    | Figures 10–12 — dt SD vs SF curves                 |
//! | `fig13`       | Figure 13 — lits deviations, %sig, δ*, timings     |
//! | `fig14`       | Figure 14 — dt deviations and %sig                 |
//! | `fig15`       | Figure 15 — ME vs deviation correlation            |
//! | `ablation_fg` | all four (f, g) combinations on the Fig. 13 workload |
//! | `ablation_gcr`| GCR vs coarser refinements (Theorems 4.1/4.3)      |
//! | `ablation_null`| bootstrap-null width vs dataset scale (A3)        |
//! | `embed`       | δ* metric embedding via classical MDS (Sec. 4.1.1) |
//! | `matrix_baseline` | full-scan vs screened vs bounds-only matrix timings → `BENCH_matrix.json` |
//! | `counting_baseline` | the counting engine's horizontal and vertical arms vs the bitmap-scan reference → `BENCH_counting.json` |
//! | `registry_baseline` | text vs binary vs mmap snapshot loads and flat vs sharded registry matrix wall time, one row per thread count → `BENCH_registry.json` |
//! | `scaling`     | the executor's hot paths (scans, qualification replicates, induction), one row per thread count → `BENCH_scaling.json` |
//! | `qualify_calibration` | the lits `qualify` test's flag rate on 200 same-process pairs, with its binomial band → `BENCH_qualify.json` |
//!
//! All binaries accept `--scale <fraction>` (default 0.02 — 2% of the
//! paper's 1M-row base, i.e. 20K rows), `--samples <n>` (default 15, paper
//! 50) and `--seed <u64>`. `--full` restores the paper's scale (takes
//! hours). Results are printed as aligned text tables and, with `--json`,
//! as machine-readable JSON lines.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::time::Instant;

pub mod collections;
pub mod config;
pub mod runner;

pub use config::ExpConfig;

/// Times a closure, returning its result and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Prints an aligned text table: header row + data rows.
pub fn print_table(headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        let mut s = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{:>width$}", c, width = widths[i]));
        }
        println!("{s}");
    };
    line(headers.iter().map(|h| h.to_string()).collect());
    line(widths.iter().map(|w| "-".repeat(*w)).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a float with 4 significant decimals, trimming noise.
pub fn fmt(x: f64) -> String {
    format!("{x:.4}")
}

/// Formats a significance percentage the way the paper prints it
/// (two decimals, e.g. `99.99`).
pub fn fmt_sig(x: f64) -> String {
    format!("{x:.2}")
}

/// The short git commit hash of the working tree, with a `-dirty` suffix
/// when tracked files have uncommitted changes, for the machine-context
/// fields appended to bench JSON lines; `"unknown"` when git (or a repo)
/// is unavailable, so bench bins never fail over provenance.
pub fn git_commit() -> String {
    commit_of(std::path::Path::new("."))
}

/// [`git_commit`] for the repository containing `dir`.
fn commit_of(dir: &std::path::Path) -> String {
    std::process::Command::new("git")
        .current_dir(dir)
        .args(["describe", "--always", "--dirty", "--abbrev=7"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timed_returns_value_and_duration() {
        let (v, secs) = timed(|| 21 * 2);
        assert_eq!(v, 42);
        assert!(secs >= 0.0);
    }

    #[test]
    fn fmt_helpers() {
        assert_eq!(fmt(0.12345678), "0.1235");
        assert_eq!(fmt_sig(99.99), "99.99");
    }

    #[test]
    fn git_commit_is_nonempty() {
        // In a checkout this is the short hash; outside one, the fallback.
        assert!(!git_commit().is_empty());
    }

    #[test]
    fn uncommitted_changes_mark_the_commit_dirty() {
        let dir = std::env::temp_dir().join(format!("focus-bench-git-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let git = |args: &[&str]| {
            std::process::Command::new("git")
                .current_dir(&dir)
                .args(["-c", "user.name=bench", "-c", "user.email=bench@localhost"])
                .args(["-c", "commit.gpgsign=false"])
                .args(args)
                .output()
        };
        if git(&["init", "-q"]).is_err() {
            std::fs::remove_dir_all(&dir).ok();
            eprintln!("git is not installed; skipping");
            return;
        }
        std::fs::write(dir.join("a.txt"), "1\n").unwrap();
        assert!(git(&["add", "a.txt"]).unwrap().status.success());
        assert!(git(&["commit", "-q", "-m", "one"])
            .unwrap()
            .status
            .success());
        let clean = commit_of(&dir);
        assert_eq!(clean.len(), 7, "{clean}");
        assert!(clean.bytes().all(|b| b.is_ascii_hexdigit()), "{clean}");
        std::fs::write(dir.join("a.txt"), "2\n").unwrap();
        assert_eq!(commit_of(&dir), format!("{clean}-dirty"));
        std::fs::remove_dir_all(&dir).ok();
    }
}
