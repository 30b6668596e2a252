//! **Ablation A2** — the GCR versus coarser common refinements
//! (empirical witness of Theorems 4.1 and 4.3: the greatest common
//! refinement gives the *least* deviation over all common refinements).
//!
//! For lits-models, any superset of the GCR (union of the structures) is a
//! common refinement; we compare the deviation over the GCR against the
//! deviation over refinements padded with extra itemsets, and over dt
//! overlays further split by gratuitous extra boundaries.

use focus_bench::runner::{fit_dt, mine};
use focus_bench::{fmt, print_table, ExpConfig};
use focus_core::deviation::{deviate, deviate_over_sources, deviation_fixed};
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::{DtFamily, LitsFamily, ModelFamily};
use focus_core::gcr::{gcr_lits, gcr_partition};
use focus_core::model::count_partition;
use focus_core::region::{AttrConstraint, BoxIndex, BoxRegion, Itemset};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_exec::Parallelism;

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let n = cfg.base_rows();
    eprintln!("# Ablation: GCR vs finer common refinements ({n} rows)");
    let mut rows: Vec<Vec<String>> = Vec::new();

    // ---- lits: pad the GCR with extra itemsets ------------------------
    let g1 = AssocGen::new(AssocGenParams::paper(4000, 4.0), cfg.seed);
    let g2 = AssocGen::new(AssocGenParams::paper(4000, 5.0), cfg.seed + 1);
    let d1 = g1.generate(n, cfg.seed ^ 1);
    let d2 = g2.generate(n, cfg.seed ^ 2);
    let m1 = mine(&d1, 0.01);
    let m2 = mine(&d2, 0.01);
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let gcr_value = deviate::<LitsFamily>(&m1, &d1, &m2, &d2, f, g, par).value;

    // A finer refinement: the GCR plus every pairwise union of GCR
    // itemsets (capped), i.e. strictly more regions.
    let gcr = gcr_lits(m1.itemsets(), m2.itemsets());
    let mut padded: Vec<Itemset> = gcr.clone();
    'outer: for (i, a) in gcr.iter().enumerate() {
        for b in gcr.iter().skip(i + 1) {
            let u = a.union(b);
            if u.len() <= 4 && !padded.contains(&u) {
                padded.push(u);
                if padded.len() >= gcr.len() + 200 {
                    break 'outer;
                }
            }
        }
    }
    padded.sort();
    padded.dedup();
    let (s1, s2) = (LitsFamily::source(&d1), LitsFamily::source(&d2));
    let padded_value =
        deviate_over_sources::<LitsFamily>(padded.clone(), &m1, &s1, &m2, &s2, f, g, par).value;
    rows.push(vec![
        "lits".into(),
        format!("{} regions", gcr.len()),
        fmt(gcr_value),
        format!("{} regions", padded.len()),
        fmt(padded_value),
        (gcr_value <= padded_value + 1e-9).to_string(),
    ]);
    if cfg.json {
        println!(
            "{{\"ablation\":\"gcr\",\"class\":\"lits\",\"gcr\":{gcr_value},\"finer\":{padded_value}}}"
        );
    }

    // ---- dt: split every GCR cell with an extra hyperplane ------------
    let t1_data = ClassifyGen::new(ClassifyFn::F1).generate(n, cfg.seed ^ 3);
    let t2_data = ClassifyGen::new(ClassifyFn::F2).generate(n, cfg.seed ^ 4);
    let m1 = fit_dt(&t1_data);
    let m2 = fit_dt(&t2_data);
    let gcr_value = deviate::<DtFamily>(&m1, &t1_data, &m2, &t2_data, f, g, par).value;

    // A strictly finer common refinement: cut the overlay once more with a
    // gratuitous salary = 85K hyperplane. Every original cell is the union
    // of its (at most two) pieces, so measures still add up — a valid
    // common refinement in the sense of Definition 3.4.
    let schema = t1_data.table.schema();
    let salary = schema.index_of("salary").expect("salary attribute");
    let cells = gcr_partition(m1.leaves(), m2.leaves());
    let mut finer: Vec<BoxRegion> = Vec::new();
    for c in &cells {
        let mut lo_side = c.region.clone();
        let mut hi_side = c.region.clone();
        if let AttrConstraint::Interval { lo, hi } = c.region.constraints[salary] {
            const CUT: f64 = 85_000.0;
            if lo < CUT && CUT < hi {
                lo_side.constraints[salary] = AttrConstraint::Interval { lo, hi: CUT };
                hi_side.constraints[salary] = AttrConstraint::Interval { lo: CUT, hi };
                finer.push(lo_side);
                finer.push(hi_side);
                continue;
            }
        }
        finer.push(c.region.clone());
    }
    let k = t1_data.n_classes;
    let finer = BoxIndex::new(&finer);
    let counts1 = count_partition(&t1_data, &finer, k, Parallelism::Global);
    let counts2 = count_partition(&t2_data, &finer, k, Parallelism::Global);
    let finer_value = deviation_fixed(
        &counts1,
        &counts2,
        t1_data.len() as u64,
        t2_data.len() as u64,
        DiffFn::Absolute,
        AggFn::Sum,
        Parallelism::Global,
    );
    rows.push(vec![
        "dt".into(),
        format!("{} cells", cells.len()),
        fmt(gcr_value),
        format!("{} cells", finer.len()),
        fmt(finer_value),
        (gcr_value <= finer_value + 1e-9).to_string(),
    ]);
    if cfg.json {
        println!(
            "{{\"ablation\":\"gcr\",\"class\":\"dt\",\"gcr\":{gcr_value},\"finer\":{finer_value}}}"
        );
    }

    print_table(
        &[
            "Class",
            "GCR size",
            "δ over GCR",
            "Finer refinement",
            "δ over finer",
            "GCR ≤ finer (Thm 4.1/4.3)",
        ],
        &rows,
    );
}
