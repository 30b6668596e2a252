//! **Figure 14** — dt-models: deviation of a family of datasets from
//! `D = 1M.F1`, with bootstrap significance.
//!
//! Dataset family (scaled by `--scale`):
//! * `D(1)` — `0.5M.F1`, same process, half size (expected: tiny deviation,
//!   NOT significant);
//! * `D(2)`…`D(4)` — `1M.F2`, `1M.F3`, `1M.F4` (expected: large,
//!   significant deviations);
//! * `D+δ(5)`…`D+δ(7)` — `D` extended with a 5%-size block generated by
//!   F2/F3/F4 (expected: small but significant deviations).
//!
//! Columns: δ(f_a,g_sum) and %sig (bootstrap over `--reps` replicates,
//! rebuilding a CART tree per pseudo-dataset).

use focus_bench::runner::fit_dt;
use focus_bench::{fmt, fmt_sig, print_table, ExpConfig};
use focus_core::data::LabeledTable;
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::DtFamily;
use focus_core::qualify::qualify;
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_exec::Parallelism;

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let n = cfg.base_rows();
    let block = (n / 20).max(50);
    eprintln!(
        "# Figure 14: D = 1M.F1 (scaled to {n}), {} bootstrap reps",
        cfg.reps
    );

    let d = ClassifyGen::new(ClassifyFn::F1).generate(n, cfg.seed ^ 0xD);
    let drift_fns = [ClassifyFn::F2, ClassifyFn::F3, ClassifyFn::F4];

    let mut family: Vec<(String, LabeledTable)> = Vec::new();
    family.push((
        "D(1)".into(),
        ClassifyGen::new(ClassifyFn::F1).generate(n / 2, cfg.seed ^ 0x11),
    ));
    for (i, f) in drift_fns.iter().enumerate() {
        family.push((
            format!("D({})", i + 2),
            ClassifyGen::new(*f).generate(n, cfg.seed ^ (0x22 + i as u64)),
        ));
    }
    for (i, f) in drift_fns.iter().enumerate() {
        let delta = ClassifyGen::new(*f).generate(block, cfg.seed ^ (0x33 + i as u64));
        family.push((format!("D+δ({})", i + 5), d.concat(&delta)));
    }

    let m_d = fit_dt(&d);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    for (label, other) in &family {
        let m_o = fit_dt(other);
        let dev = deviate::<DtFamily>(&m_d, &d, &m_o, other, f, g, par).value;
        let sig = if cfg.reps > 0 {
            let q = qualify(&d, other, dev, cfg.reps, cfg.seed ^ 0x55, par, |a, b| {
                let ma = fit_dt(a);
                let mb = fit_dt(b);
                deviate::<DtFamily>(&ma, a, &mb, b, f, g, par).value
            });
            fmt_sig(q.significance_percent)
        } else {
            "-".to_string()
        };
        if cfg.json {
            println!("{{\"figure\":14,\"dataset\":\"{label}\",\"delta\":{dev},\"sig\":\"{sig}\"}}");
        }
        rows.push(vec![label.clone(), fmt(dev), sig]);
    }
    print_table(&["ID", "δ", "%sig(δ)"], &rows);
}
