//! **Figure 13** — lits-models: deviation of a family of datasets from
//! `D = 1M.20L.1K.4000pats.4patlen`, with bootstrap significance, the
//! upper bound δ*, and the time to compute δ versus δ*.
//!
//! Dataset family (scaled by `--scale`):
//! * `D(1)` — same generating process as `D`, half the size (expected:
//!   small deviation, NOT significant);
//! * `D(2)`…`D(4)` — different processes: (6000 pats, 4 patlen),
//!   (4000, 5), (5000, 5) (expected: large, significant deviations; the
//!   `patlen` parameter has the larger influence);
//! * `D+δ(5)`…`D+δ(7)` — `D` extended with a 5%-size block from the three
//!   processes above (expected: the `patlen`-changing blocks (6),(7) are
//!   significant, the `pats`-only block (5) is not).
//!
//! Columns: δ(f_a,g_sum), %sig (permutation test over `--reps`
//! replicates), δ*, time for δ, time for δ*.

use focus_bench::runner::{mine, miner};
use focus_bench::{fmt, fmt_sig, print_table, timed, ExpConfig};
use focus_core::bound::lits_upper_bound;
use focus_core::data::TransactionSet;
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::LitsFamily;
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_exec::Parallelism;
use focus_mining::qualify_pooled;

const MINSUP: f64 = 0.01;

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let n = cfg.base_rows();
    let block = (n / 20).max(50); // the paper's 50K blocks on a 1M base
    let base_params = AssocGenParams::paper(4000, 4.0);
    eprintln!(
        "# Figure 13: D = {} (scaled to {n}), minsup 1%, {} bootstrap reps",
        base_params.dataset_name(1_000_000),
        cfg.reps
    );

    let base_gen = AssocGen::new(base_params, cfg.seed);
    let d = base_gen.generate(n, cfg.seed ^ 0xD);

    let processes = [
        AssocGenParams::paper(6000, 4.0),
        AssocGenParams::paper(4000, 5.0),
        AssocGenParams::paper(5000, 5.0),
    ];

    // (label, dataset)
    let mut family: Vec<(String, TransactionSet)> = Vec::new();
    family.push(("D(1)".into(), base_gen.generate(n / 2, cfg.seed ^ 0x11)));
    for (i, p) in processes.iter().enumerate() {
        let g = AssocGen::new(*p, cfg.seed.wrapping_add(100 + i as u64));
        family.push((
            format!("D({})", i + 2),
            g.generate(n, cfg.seed ^ (0x22 + i as u64)),
        ));
    }
    for (i, p) in processes.iter().enumerate() {
        let g = AssocGen::new(*p, cfg.seed.wrapping_add(100 + i as u64));
        let delta = g.generate(block, cfg.seed ^ (0x33 + i as u64));
        family.push((format!("D+δ({})", i + 5), d.concat(&delta)));
    }

    let m_d = mine(&d, MINSUP);
    let miner = miner(MINSUP);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    for (label, other) in &family {
        let m_o = mine(other, MINSUP);
        let (dev, t_delta) =
            timed(|| deviate::<LitsFamily>(&m_d, &d, &m_o, other, f, g, par).value);
        let (bound, t_bound) = timed(|| lits_upper_bound(&m_d, &m_o, AggFn::Sum));
        let sig = if cfg.reps > 0 {
            let q = qualify_pooled(&d, other, &miner, f, g, cfg.reps, cfg.seed ^ 0x55, par);
            fmt_sig(q.significance_percent)
        } else {
            "-".to_string()
        };
        if cfg.json {
            println!(
                "{{\"figure\":13,\"dataset\":\"{label}\",\"delta\":{dev},\"sig\":\"{sig}\",\"bound\":{bound},\"t_delta\":{t_delta},\"t_bound\":{t_bound}}}"
            );
        }
        rows.push(vec![
            label.clone(),
            fmt(dev),
            sig,
            fmt(bound),
            format!("{t_delta:.3}"),
            format!("{t_bound:.5}"),
        ]);
    }
    print_table(
        &["Dataset", "δ", "%sig(δ)", "δ*", "Time δ (s)", "Time δ* (s)"],
        &rows,
    );
}
