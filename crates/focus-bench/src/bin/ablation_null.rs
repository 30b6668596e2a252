//! **Ablation A3** — width of the bootstrap null versus dataset scale.
//!
//! Context: Figure 14's appended-block rows (`D+δ(5)`…`(7)`) carry a fixed
//! deviation signal of ≈0.05 (5% foreign rows), while the bootstrap null —
//! deviations between two same-process resamples — *narrows* as the
//! dataset grows. The paper (at 1M rows) reports those rows as 99%
//! significant; scaled-down runs do not. This ablation measures the null's
//! median and 99th percentile across scales so the crossover point is an
//! observable, not an article of faith.
//!
//! Prints, per scale: |D|, null q50, null q99, the fixed block signal, and
//! whether the signal clears the q99 alarm line.

use focus_bench::runner::fit_dt;
use focus_bench::{fmt, print_table, ExpConfig};

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    run(cfg);
}

fn run(cfg: ExpConfig) {
    use focus_core::deviation::deviate;
    use focus_core::diff::{AggFn, DiffFn};
    use focus_core::family::DtFamily;
    use focus_core::qualify::qualify;
    use focus_data::classify::{ClassifyFn, ClassifyGen};
    use focus_exec::Parallelism;

    // Multiples of the base size: 20k–200k rows at the default scale.
    let multiples = [1.0, 2.5, 5.0, 10.0];
    eprintln!(
        "# Ablation: bootstrap-null width vs scale ({} reps per scale)",
        cfg.reps.max(9)
    );
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let mut rows: Vec<Vec<String>> = Vec::new();
    for k in multiples {
        let n = (cfg.base_rows() as f64 * k) as usize;
        let d = ClassifyGen::new(ClassifyFn::F1).generate(n, cfg.seed);
        let block = ClassifyGen::new(ClassifyFn::F3).generate(n / 20, cfg.seed ^ 1);
        let d_plus = d.concat(&block);

        // Observed block signal.
        let m_d = fit_dt(&d);
        let m_plus = fit_dt(&d_plus);
        let signal = deviate::<DtFamily>(&m_d, &d, &m_plus, &d_plus, f, g, par).value;

        // Null: deviations between two same-process resamples of the pool.
        let reps = cfg.reps.max(9);
        let q = qualify(&d, &d_plus, signal, reps, cfg.seed ^ 2, par, |a, b| {
            let ma = fit_dt(a);
            let mb = fit_dt(b);
            deviate::<DtFamily>(&ma, a, &mb, b, f, g, par).value
        });
        let q50 = focus_stats::describe::percentile(&q.null_distribution, 50.0);
        let q99 = focus_stats::describe::percentile(&q.null_distribution, 99.0);
        rows.push(vec![
            format!("{n}"),
            fmt(q50),
            fmt(q99),
            fmt(signal),
            (signal > q99).to_string(),
        ]);
        if cfg.json {
            println!(
                "{{\"ablation\":\"null\",\"n\":{n},\"q50\":{q50},\"q99\":{q99},\"signal\":{signal}}}"
            );
        }
    }
    print_table(
        &[
            "|D|",
            "null q50",
            "null q99",
            "block signal δ",
            "significant",
        ],
        &rows,
    );
    println!(
        "\nThe null narrows with |D| while the 5%-block signal stays ≈ constant;\n\
         the paper's 1M-row setting sits past the crossover."
    );
}
