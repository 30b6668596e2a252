//! Golden-output snapshot tests for the focus-cli subcommands.
//!
//! The smoke suite checks that the pipelines *run*; this suite pins down
//! exactly **what they report**. Every deviation, bound, significance
//! percentage, mined support and rendered tree is compared verbatim
//! against a checked-in snapshot, so a refactor that silently changes a
//! reported number — a reordered float fold, a perturbed RNG stream, an
//! off-by-one in a scan — fails here even if every structural invariant
//! still holds.
//!
//! The snapshots also double as an end-to-end witness of the determinism
//! contract: CI runs this suite under `FOCUS_THREADS ∈ {1, 4}`, and the
//! same bytes must come out either way.
//!
//! To regenerate after an *intentional* output change:
//! `UPDATE_GOLDEN=1 cargo test -p focus-cli --test golden`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_focus-cli")
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("failed to spawn focus-cli");
    assert!(
        out.status.success(),
        "focus-cli {:?} failed with {}\nstdout: {}\nstderr: {}",
        args,
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is not UTF-8")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus-cli-golden-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("non-UTF-8 temp path")
}

/// Compares `got` against the snapshot at `tests/golden/<name>.txt`,
/// or rewrites the snapshot when `UPDATE_GOLDEN` is set.
fn assert_golden(name: &str, got: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing snapshot {} ({e}); run with UPDATE_GOLDEN=1", name));
    assert_eq!(
        got, want,
        "snapshot {name} diverged; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1"
    );
}

/// The full lits pipeline — gen → mine → deviate → bound → qualify — with
/// every reported number snapshotted.
#[test]
fn lits_pipeline_golden() {
    let dir = scratch("lits");
    let d1 = dir.join("d1.txt");
    let d2 = dir.join("d2.txt");
    let m1 = dir.join("m1.model");
    let m2 = dir.join("m2.model");

    for (out, seed) in [(&d1, "2"), (&d2, "3")] {
        run(&[
            "gen-assoc",
            "--out",
            path_str(out),
            "--n",
            "400",
            "--pats",
            "50",
            "--patlen",
            "3",
            "--pattern-seed",
            "1",
            "--seed",
            seed,
        ]);
    }

    // `mine` without --out prints the top itemsets with their supports.
    let mined = run(&["mine", "--data", path_str(&d1), "--minsup", "0.05"]);
    assert_golden("mine_top_itemsets", &stdout(&mined));

    // Persist both models for `bound`.
    for (d, m) in [(&d1, &m1), (&d2, &m2)] {
        run(&[
            "mine",
            "--data",
            path_str(d),
            "--minsup",
            "0.05",
            "--out",
            path_str(m),
        ]);
    }

    for (name, f, g) in [
        ("deviate_fa_sum", "fa", "sum"),
        ("deviate_fa_max", "fa", "max"),
        ("deviate_fs_sum", "fs", "sum"),
    ] {
        let dev = run(&[
            "deviate",
            "--d1",
            path_str(&d1),
            "--d2",
            path_str(&d2),
            "--minsup",
            "0.05",
            "--f",
            f,
            "--g",
            g,
        ]);
        assert_golden(name, &stdout(&dev));
    }

    let bound = run(&["bound", "--m1", path_str(&m1), "--m2", path_str(&m2)]);
    assert_golden("bound_fa_sum", &stdout(&bound));

    let qual = run(&[
        "qualify",
        "--d1",
        path_str(&d1),
        "--d2",
        path_str(&d2),
        "--minsup",
        "0.05",
        "--reps",
        "19",
        "--seed",
        "7",
    ]);
    assert_golden("qualify", &stdout(&qual));

    std::fs::remove_dir_all(&dir).ok();
}

/// The dt pipeline — gen-class → tree → deviate --kind dt — with the rendered
/// tree and the reported deviation snapshotted.
#[test]
fn dt_pipeline_golden() {
    let dir = scratch("dt");
    let d1 = dir.join("d1.tbl");
    let d2 = dir.join("d2.tbl");

    for (out, seed) in [(&d1, "1"), (&d2, "2")] {
        run(&[
            "gen-class",
            "--out",
            path_str(out),
            "--n",
            "500",
            "--function",
            "F2",
            "--seed",
            seed,
        ]);
    }

    // `tree --render` prints the fitted tree structure to stdout: exact
    // split attributes and thresholds, leaf counts and predictions.
    let tree = run(&[
        "tree",
        "--data",
        path_str(&d1),
        "--max-depth",
        "4",
        "--min-leaf",
        "20",
        "--render",
    ]);
    assert_golden("tree_render", &stdout(&tree));

    let dev = run(&[
        "deviate",
        "--kind",
        "dt",
        "--d1",
        path_str(&d1),
        "--d2",
        path_str(&d2),
        "--max-depth",
        "4",
        "--min-leaf",
        "20",
    ]);
    assert_golden("deviate_dt", &stdout(&dev));

    std::fs::remove_dir_all(&dir).ok();
}

/// The registry workflow — registry-add × 4 → matrix (δ*-screened) →
/// embed — with the full matrix report and the MDS coordinates
/// snapshotted, and the matrix output swept across thread counts.
///
/// The four snapshots form two families (pattern seeds 1 and 9): the two
/// intra-family pairs have δ* bounds far below the inter-family pairs, so
/// `--threshold 500` must prune exactly those two exact scans.
#[test]
fn registry_pipeline_golden() {
    let dir = scratch("registry");
    let reg = dir.join("reg");

    for (name, pattern_seed, seed) in [
        ("snap-a", "1", "2"),
        ("snap-b", "1", "3"),
        ("snap-c", "9", "4"),
        ("snap-d", "9", "5"),
    ] {
        let data = dir.join(format!("{name}.txt"));
        run(&[
            "gen-assoc",
            "--out",
            path_str(&data),
            "--n",
            "400",
            "--pats",
            "50",
            "--patlen",
            "3",
            "--pattern-seed",
            pattern_seed,
            "--seed",
            seed,
        ]);
        run(&[
            "registry-add",
            "--dir",
            path_str(&reg),
            "--data",
            path_str(&data),
            "--name",
            name,
            "--minsup",
            "0.05",
        ]);
    }

    // δ*-screened matrix: the two intra-family pairs are pruned, the four
    // inter-family pairs get exact scans — and the report must come out
    // bit-identical for every thread count.
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4", "7"] {
        let m = run(&[
            "matrix",
            "--dir",
            path_str(&reg),
            "--threshold",
            "500",
            "--threads",
            threads,
        ]);
        outputs.push(stdout(&m));
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0], "matrix output must be thread-invariant");
    }
    assert_golden("registry_matrix", &outputs[0]);
    assert!(
        outputs[0].starts_with("pairs 6 scanned 4 pruned 2 "),
        "screening must prune the two intra-family pairs: {}",
        outputs[0]
    );

    // Unscreened control: threshold 0 scans every pair.
    let full = run(&["matrix", "--dir", path_str(&reg)]);
    assert_golden("registry_matrix_full", &stdout(&full));

    let emb = run(&["embed", "--dir", path_str(&reg), "--k", "2"]);
    assert_golden("registry_embed", &stdout(&emb));

    std::fs::remove_dir_all(&dir).ok();
}

/// The dt-family registry workflow — gen-class → registry-add --kind dt
/// × 4 → matrix → embed — with the full matrix report and the MDS
/// coordinates snapshotted, and the matrix output swept across thread
/// counts.
///
/// Decision-tree snapshots carry the leaf-mass δ* bound, so the matrix
/// reports `bound … exact …` per pair; at the default threshold 0 every
/// pair still gets an exact scan (`pruned 0`), and the embedding — the
/// dt bound is a pseudo-metric — runs straight off the δ* grid.
#[test]
fn registry_dt_pipeline_golden() {
    let dir = scratch("registry-dt");
    let reg = dir.join("reg");

    // Two snapshots per Agrawal function: F2-generated days cluster
    // together, F5-generated days sit far away.
    for (name, function, seed) in [
        ("day-a", "F2", "2"),
        ("day-b", "F2", "3"),
        ("day-c", "F5", "4"),
        ("day-d", "F5", "5"),
    ] {
        let data = dir.join(format!("{name}.tbl"));
        run(&[
            "gen-class",
            "--out",
            path_str(&data),
            "--n",
            "400",
            "--function",
            function,
            "--seed",
            seed,
        ]);
        run(&[
            "registry-add",
            "--dir",
            path_str(&reg),
            "--data",
            path_str(&data),
            "--name",
            name,
            "--kind",
            "dt",
            "--max-depth",
            "4",
            "--min-leaf",
            "20",
        ]);
    }

    let mut outputs = Vec::new();
    for threads in ["1", "2", "4", "7"] {
        let m = run(&["matrix", "--dir", path_str(&reg), "--threads", threads]);
        outputs.push(stdout(&m));
    }
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0], "dt matrix output must be thread-invariant");
    }
    assert_golden("registry_matrix_dt", &outputs[0]);
    assert!(
        outputs[0].starts_with("pairs 6 scanned 6 pruned 0 "),
        "at threshold 0 every dt pair must be scanned exactly: {}",
        outputs[0]
    );
    assert!(
        outputs[0].contains(" bound "),
        "dt pairs must report the leaf-mass bound: {}",
        outputs[0]
    );

    let mut embeds = Vec::new();
    for threads in ["1", "4"] {
        let e = run(&[
            "embed",
            "--dir",
            path_str(&reg),
            "--k",
            "2",
            "--threads",
            threads,
        ]);
        embeds.push(stdout(&e));
    }
    assert_eq!(embeds[0], embeds[1], "dt embed must be thread-invariant");
    // Independently fitted trees share no leaf boxes, so every pairwise
    // leaf-mass bound saturates at the total mass (2.0) and the scan-free
    // δ* embedding is near-degenerate — the honest model-only picture.
    // Shared-structure snapshots (retrained trees with a common split
    // skeleton) embed exactly, since matched leaves make the bound tight.
    assert_golden("registry_embed_dt", &embeds[0]);

    std::fs::remove_dir_all(&dir).ok();
}

/// The snapshots must be invariant under the thread count — the CLI-level
/// expression of the bit-identical contract. (CI additionally runs the
/// whole suite under FOCUS_THREADS ∈ {1, 4}.)
#[test]
fn golden_outputs_thread_invariant() {
    let dir = scratch("threads");
    let d1 = dir.join("d1.txt");
    let d2 = dir.join("d2.txt");
    for (out, seed) in [(&d1, "2"), (&d2, "3")] {
        run(&[
            "gen-assoc",
            "--out",
            path_str(out),
            "--n",
            "400",
            "--pats",
            "50",
            "--patlen",
            "3",
            "--pattern-seed",
            "1",
            "--seed",
            seed,
        ]);
    }
    let mut outputs = Vec::new();
    for threads in ["1", "2", "4", "7"] {
        let dev = run(&[
            "deviate",
            "--d1",
            path_str(&d1),
            "--d2",
            path_str(&d2),
            "--minsup",
            "0.05",
            "--threads",
            threads,
        ]);
        outputs.push(stdout(&dev));
    }
    // All four runs print identical bytes — and they match the snapshot
    // recorded by the main pipeline test.
    for o in &outputs[1..] {
        assert_eq!(o, &outputs[0]);
    }
    assert_golden("deviate_fa_sum", &outputs[0]);

    std::fs::remove_dir_all(&dir).ok();
}
