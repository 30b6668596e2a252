//! An *atlas* of dataset snapshots (Section 4.1.1): keep a registry of
//! daily extracts, compare every pair with δ*-screening, and embed the
//! whole collection in the plane for visual inspection.
//!
//! Demonstrates: the snapshot registry (persisted datasets + mined
//! models + manifest), the two-phase screened deviation matrix (exact
//! scans only where the model-only bound says the pair is interesting),
//! and the classical-MDS embedding under the δ* metric.
//!
//! Run with: `cargo run --release --example snapshot_atlas`

use focus::core::family::LitsFamily;
use focus::data::assoc::{AssocGen, AssocGenParams};
use focus::registry::{MatrixParams, Registry};

fn main() {
    let root = std::env::temp_dir().join(format!("focus-snapshot-atlas-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let mut reg = Registry::open_or_create(&root).expect("create registry");

    // Six "daily" snapshots from two market-basket regimes: days 0–2 from
    // the original process, days 3–5 after a pattern shift (a different
    // pattern seed — new co-purchase structure, same item universe).
    for day in 0..6u64 {
        let pattern_seed = if day < 3 { 1 } else { 9 };
        let gen = AssocGen::new(AssocGenParams::paper(200, 4.0), pattern_seed);
        let data = gen.generate(3_000, 40 + day);
        let entry = reg
            .add(&format!("day-{day}"), &data, 0.02)
            .expect("add snapshot");
        println!(
            "registered {:8} {} transactions, {} frequent itemsets",
            entry.name, entry.n_rows, entry.n_regions
        );
    }

    // Pass 1 — bounds only (threshold +∞): instantaneous, model-only.
    let bounds = reg
        .matrix_of::<LitsFamily>(&MatrixParams {
            threshold: f64::INFINITY,
            ..MatrixParams::default()
        })
        .expect("bound matrix");
    let mut bs: Vec<f64> = (0..bounds.len())
        .flat_map(|i| ((i + 1)..bounds.len()).map(move |j| (i, j)))
        .map(|(i, j)| bounds.bound(i, j))
        .collect();
    bs.sort_by(f64::total_cmp);
    let threshold = (bs[0] + bs[bs.len() - 1]) / 2.0;
    println!(
        "\nδ* bounds span [{:.3}, {:.3}]; screening at the midpoint, {:.3}",
        bs[0],
        bs[bs.len() - 1],
        threshold
    );

    // Pass 2 — exact scans only where the bound clears the threshold.
    let matrix = reg
        .matrix_of::<LitsFamily>(&MatrixParams {
            threshold,
            ..MatrixParams::default()
        })
        .expect("screened matrix");
    println!(
        "screened matrix: {} pairs, {} scanned, {} pruned\n",
        matrix.n_pairs(),
        matrix.scanned(),
        matrix.pruned()
    );
    let names = matrix.names();
    for i in 0..matrix.len() {
        for j in (i + 1)..matrix.len() {
            match matrix.exact(i, j) {
                Some(e) => println!(
                    "  {} vs {}  bound {:8.3}  exact {:8.3}",
                    names[i],
                    names[j],
                    matrix.bound(i, j),
                    e
                ),
                None => println!(
                    "  {} vs {}  bound {:8.3}  (pruned: certifiably similar)",
                    names[i],
                    names[j],
                    matrix.bound(i, j)
                ),
            }
        }
    }

    // The atlas: 2-D MDS under the δ* metric. The two regimes separate.
    let coords = matrix
        .embed(2)
        .expect("lits bounds form a full metric grid");
    let stress = matrix.stress(&coords).expect("same grid as the embedding");
    println!("\n2-D embedding (stress {stress:.4}):");
    for (name, c) in names.iter().zip(&coords) {
        println!("  {:8} ({:9.3}, {:9.3})", name, c[0], c[1]);
    }

    std::fs::remove_dir_all(&root).ok();
}
