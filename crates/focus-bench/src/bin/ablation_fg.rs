//! **Ablation A1** — all four (difference, aggregate) combinations on the
//! Figure 13 workload.
//!
//! The paper presents `δ(f_a, g_sum)` results and notes the other three
//! combinations behave consistently (relegating their plots to the full
//! version). This ablation sweeps `f ∈ {f_a, f_s}` × `g ∈ {sum, max}` over
//! the same dataset family so the orderings can be compared: all four
//! instantiations must agree on *which* datasets drift (the paper's claim
//! that FOCUS is robust to the choice of f and g), even though their
//! absolute scales differ wildly.

use focus_bench::runner::mine;
use focus_bench::{fmt, print_table, ExpConfig};
use focus_core::data::TransactionSet;
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::LitsFamily;
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_exec::Parallelism;

const MINSUP: f64 = 0.01;

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let n = cfg.base_rows();
    let base_gen = AssocGen::new(AssocGenParams::paper(4000, 4.0), cfg.seed);
    let d = base_gen.generate(n, cfg.seed ^ 0xD);
    eprintln!("# Ablation: f × g sweep on the Figure 13 family ({n} transactions)");

    let processes = [
        AssocGenParams::paper(6000, 4.0),
        AssocGenParams::paper(4000, 5.0),
        AssocGenParams::paper(5000, 5.0),
    ];
    let mut family: Vec<(String, TransactionSet)> = Vec::new();
    family.push(("D(1)".into(), base_gen.generate(n / 2, cfg.seed ^ 0x11)));
    for (i, p) in processes.iter().enumerate() {
        let g = AssocGen::new(*p, cfg.seed.wrapping_add(100 + i as u64));
        family.push((
            format!("D({})", i + 2),
            g.generate(n, cfg.seed ^ (0x22 + i as u64)),
        ));
    }

    let combos: [(&str, DiffFn, AggFn); 4] = [
        ("f_a,g_sum", DiffFn::Absolute, AggFn::Sum),
        ("f_a,g_max", DiffFn::Absolute, AggFn::Max),
        ("f_s,g_sum", DiffFn::Scaled, AggFn::Sum),
        ("f_s,g_max", DiffFn::Scaled, AggFn::Max),
    ];

    let m_d = mine(&d, MINSUP);
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); combos.len()];
    for (label, other) in &family {
        let m_o = mine(other, MINSUP);
        let mut row = vec![label.clone()];
        for (c, (_, f, g)) in combos.iter().enumerate() {
            let dev =
                deviate::<LitsFamily>(&m_d, &d, &m_o, other, *f, *g, Parallelism::Global).value;
            columns[c].push(dev);
            row.push(fmt(dev));
            if cfg.json {
                println!(
                    "{{\"ablation\":\"fg\",\"dataset\":\"{label}\",\"combo\":\"{}\",\"delta\":{dev}}}",
                    combos[c].0
                );
            }
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("Dataset")
        .chain(combos.iter().map(|(n, _, _)| *n))
        .collect();
    print_table(&headers, &rows);

    // Sanity summary: does every combination rank the same-process control
    // D(1) lowest?
    let all_rank_control_lowest = columns
        .iter()
        .all(|col| col[0] <= col[1..].iter().cloned().fold(f64::INFINITY, f64::min) + 1e-12);
    println!(
        "\nAll four (f,g) combinations rank the same-process dataset D(1) lowest: {}",
        all_rank_control_lowest
    );
}
