//! **Qualification calibration** — the size of the lits `qualify` test
//! (Section 3.4) under its null hypothesis.
//!
//! Each of 200 trials generates two datasets from one `gen-assoc` pattern
//! set (the CLI's defaults: 4,000 patterns of mean length 4, pattern seed
//! `--seed`) with two data seeds of its own, `--scale` × 100k rows each
//! (2k at the default scale), and qualifies their deviation exactly as
//! the CLI's `qualify` does: CLI miner, δ(f_a, g_sum), 99 permutation
//! replicates through `focus_mining::qualify_pooled`, replicate seed the
//! trial number. Both datasets come from one process, so a test of the
//! advertised size flags about 5 % of the trials at 95 %.
//!
//! Prints one JSON row on stdout, in the `bench`, `layer`, `scale`,
//! `threads`, `commit`, `secs` schema of `BENCH_scaling.json` (`secs` is
//! the wall time of all trials), plus the trial and flag counts, the flag
//! rate and its 95 % Wilson score band; a summary goes to stderr.
//! `--samples` and `--reps` are not used: the trial and replicate counts
//! are fixed so rows stay comparable.

use focus_bench::{git_commit, timed, ExpConfig};
use focus_core::diff::{AggFn, DiffFn};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_exec::Parallelism;
use focus_mining::{qualify_pooled, Apriori, AprioriParams};

const TRIALS: u64 = 200;
const REPS: usize = 99;

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let threads = focus_exec::global_threads();
    let n = cfg.rows(100_000);
    let gen = AssocGen::new(AssocGenParams::paper(4000, 4.0), cfg.seed);
    let miner = Apriori::new(
        AprioriParams::with_minsup(0.01)
            .max_len(10)
            .min_count_floor(2),
    );
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let (flagged, secs) = timed(|| {
        (0..TRIALS)
            .filter(|&t| {
                let d1 = gen.generate(n, cfg.seed + 1000 + 2 * t);
                let d2 = gen.generate(n, cfg.seed + 1001 + 2 * t);
                qualify_pooled(&d1, &d2, &miner, f, g, REPS, t, par).is_significant(0.05)
            })
            .count()
    });
    let (lo, hi) = wilson_band(flagged as f64, TRIALS as f64);
    let rate = flagged as f64 / TRIALS as f64;
    println!(
        "{{\"bench\":\"qualify_calibration\",\"layer\":\"null\",\"scale\":{},\
         \"threads\":{threads},\"commit\":\"{}\",\"secs\":{secs:.6},\"rows\":{n},\
         \"trials\":{TRIALS},\"reps\":{REPS},\"flagged\":{flagged},\"rate\":{rate:.4},\
         \"band_lo\":{lo:.4},\"band_hi\":{hi:.4}}}",
        cfg.scale,
        git_commit()
    );
    eprintln!(
        "{n} rows per side: {flagged} of {TRIALS} same-process pairs flagged at 95 % \
         (rate {rate:.3}, 95 % band {lo:.3}–{hi:.3}) in {secs:.1} s"
    );
}

/// The 95 % Wilson score interval of a binomial rate `k / n`.
fn wilson_band(k: f64, n: f64) -> (f64, f64) {
    let z2 = 1.959_964f64.powi(2);
    let p = k / n;
    let centre = (p + z2 / (2.0 * n)) / (1.0 + z2 / n);
    let half = (z2 * (p * (1.0 - p) / n + z2 / (4.0 * n * n))).sqrt() / (1.0 + z2 / n);
    (centre - half, centre + half)
}
