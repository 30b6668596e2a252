//! **Figure 15** — misclassification error versus deviation.
//!
//! For each dataset in the Figure 14 family (minus the same-process
//! control), plot the misclassification error of the tree built on `D`
//! w.r.t. the second dataset against `δ(f_a, g_sum)` between the two
//! datasets. The paper reports "a strong positive correlation"; we print
//! the scatter points and the Pearson correlation coefficient.

use focus_bench::runner::fit_dt;
use focus_bench::{fmt, print_table, ExpConfig};
use focus_core::data::LabeledTable;
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::DtFamily;
use focus_core::monitor::misclassification_error;
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_exec::Parallelism;
use focus_stats::describe::pearson;

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let n = cfg.base_rows();
    let block = (n / 20).max(50);
    eprintln!("# Figure 15: ME vs deviation, D = 1M.F1 scaled to {n}");

    let d = ClassifyGen::new(ClassifyFn::F1).generate(n, cfg.seed ^ 0xD);
    let drift_fns = [ClassifyFn::F2, ClassifyFn::F3, ClassifyFn::F4];

    let mut family: Vec<(String, LabeledTable)> = Vec::new();
    for (i, f) in drift_fns.iter().enumerate() {
        family.push((
            format!("D({})", i + 2),
            ClassifyGen::new(*f).generate(n, cfg.seed ^ (0x22 + i as u64)),
        ));
    }
    for (i, f) in drift_fns.iter().enumerate() {
        let delta = ClassifyGen::new(*f).generate(block, cfg.seed ^ (0x33 + i as u64));
        family.push((format!("δ({})", i + 5), d.concat(&delta)));
    }

    let m_d = fit_dt(&d);
    let mut devs = Vec::new();
    let mut mes = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    for (label, other) in &family {
        let m_o = fit_dt(other);
        let dev = deviate::<DtFamily>(&m_d, &d, &m_o, other, f, g, par).value;
        let me = misclassification_error(&m_d, other, Parallelism::Global);
        devs.push(dev);
        mes.push(me);
        if cfg.json {
            println!("{{\"figure\":15,\"dataset\":\"{label}\",\"deviation\":{dev},\"me\":{me}}}");
        }
        rows.push(vec![label.clone(), fmt(dev), fmt(me)]);
    }
    print_table(&["Dataset", "Deviation", "ME"], &rows);
    let r = pearson(&devs, &mes);
    println!("\nPearson correlation (deviation, ME): {r:.4}");
    if cfg.json {
        println!("{{\"figure\":15,\"pearson\":{r}}}");
    }
}
