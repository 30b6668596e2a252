//! End-to-end smoke test: drives the `focus-cli` binary through the full
//! lits pipeline (generate → mine → deviate → bound → qualify) and the dt
//! pipeline (generate → deviate --kind dt) on tiny datasets, asserting each step
//! exits 0 and emits a well-formed report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

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

/// Fresh scratch directory under the target-provided temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus-cli-smoke-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("non-UTF-8 temp path")
}

#[test]
fn lits_pipeline_end_to_end() {
    let dir = scratch("lits");
    let d1 = dir.join("d1.txt");
    let d2 = dir.join("d2.txt");
    let m1 = dir.join("m1.model");
    let m2 = dir.join("m2.model");

    // Two small datasets from the same generating process, different seeds.
    run(&[
        "gen-assoc",
        "--out",
        path_str(&d1),
        "--n",
        "400",
        "--pats",
        "50",
        "--patlen",
        "3",
        "--pattern-seed",
        "1",
        "--seed",
        "2",
    ]);
    run(&[
        "gen-assoc",
        "--out",
        path_str(&d2),
        "--n",
        "400",
        "--pats",
        "50",
        "--patlen",
        "3",
        "--pattern-seed",
        "1",
        "--seed",
        "3",
    ]);
    assert!(d1.exists() && d2.exists(), "generated datasets must exist");

    // Mine both into model files.
    run(&[
        "mine",
        "--data",
        path_str(&d1),
        "--minsup",
        "0.05",
        "--out",
        path_str(&m1),
    ]);
    run(&[
        "mine",
        "--data",
        path_str(&d2),
        "--minsup",
        "0.05",
        "--out",
        path_str(&m2),
    ]);

    // Exact deviation: stdout is a single non-negative finite number.
    let dev_out = run(&[
        "deviate",
        "--d1",
        path_str(&d1),
        "--d2",
        path_str(&d2),
        "--minsup",
        "0.05",
    ]);
    let dev: f64 = stdout(&dev_out)
        .trim()
        .parse()
        .expect("deviate must print a number");
    assert!(dev.is_finite() && dev >= 0.0, "deviation {dev}");

    // Upper bound from the persisted models dominates the exact deviation.
    let bound_out = run(&["bound", "--m1", path_str(&m1), "--m2", path_str(&m2)]);
    let bound: f64 = stdout(&bound_out)
        .trim()
        .parse()
        .expect("bound must print a number");
    assert!(bound >= dev - 1e-9, "δ* = {bound} must dominate δ = {dev}");

    // Qualify: a well-formed deviation report with a significance percentage.
    let qual_out = run(&[
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
    let report = stdout(&qual_out);
    assert!(
        report.contains("deviation") && report.contains("significance"),
        "malformed report: {report:?}"
    );
    let sig: f64 = report
        .split_whitespace()
        .last()
        .unwrap()
        .trim_end_matches('%')
        .parse()
        .expect("significance must be a percentage");
    assert!((0.0..=100.0).contains(&sig), "significance {sig}");

    // Deterministic: the same invocation prints the same deviation.
    let dev_out2 = run(&[
        "deviate",
        "--d1",
        path_str(&d1),
        "--d2",
        path_str(&d2),
        "--minsup",
        "0.05",
    ]);
    assert_eq!(stdout(&dev_out), stdout(&dev_out2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dt_pipeline_end_to_end() {
    let dir = scratch("dt");
    let d1 = dir.join("d1.tbl");
    let d2 = dir.join("d2.tbl");

    // Same Agrawal function, different seeds — a small honest drift test.
    run(&[
        "gen-class",
        "--out",
        path_str(&d1),
        "--n",
        "500",
        "--function",
        "F2",
        "--seed",
        "1",
    ]);
    run(&[
        "gen-class",
        "--out",
        path_str(&d2),
        "--n",
        "500",
        "--function",
        "F2",
        "--seed",
        "2",
    ]);

    // Fit a tree on one dataset; just a structural sanity check.
    run(&[
        "tree",
        "--data",
        path_str(&d1),
        "--max-depth",
        "4",
        "--min-leaf",
        "20",
    ]);

    let out = run(&[
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
    let dev: f64 = stdout(&out)
        .trim()
        .parse()
        .expect("deviate --kind dt must print a number");
    assert!(dev.is_finite() && dev >= 0.0, "dt deviation {dev}");

    std::fs::remove_dir_all(&dir).ok();
}

/// Generates a small transaction file at `path`.
fn gen_txns(path: &Path, seed: &str) {
    run(&[
        "gen-assoc",
        "--out",
        path_str(path),
        "--n",
        "300",
        "--pats",
        "40",
        "--patlen",
        "3",
        "--pattern-seed",
        "1",
        "--seed",
        seed,
    ]);
}

/// `registry-add` of a lits snapshot mined at minsup 0.05, plus `extra`.
fn add_lits(reg: &Path, data: &Path, name: &str, extra: &[&str]) {
    let mut args = vec![
        "registry-add",
        "--dir",
        path_str(reg),
        "--data",
        path_str(data),
        "--name",
        name,
        "--minsup",
        "0.05",
    ];
    args.extend_from_slice(extra);
    run(&args);
}

/// Every file under `dir`, with its bytes, in path order.
fn tree_bytes(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for e in std::fs::read_dir(dir).unwrap() {
        let path = e.unwrap().path();
        if path.is_dir() {
            out.extend(tree_bytes(&path));
        } else {
            out.push((path.clone(), std::fs::read(&path).unwrap()));
        }
    }
    out.sort();
    out
}

#[test]
fn flat_and_sharded_registries_report_identical_matrices() {
    let dir = scratch("registry-layouts");
    let d1 = dir.join("d1.txt");
    let d2 = dir.join("d2.txt");
    gen_txns(&d1, "2");
    gen_txns(&d2, "9");

    // The same snapshots into a flat registry and a sharded one.
    let reg_flat = dir.join("reg-flat");
    let reg_sharded = dir.join("reg-sharded");
    for (reg, extra) in [
        (&reg_flat, &[][..]),
        (&reg_sharded, &["--format", "bin", "--shards", "2"][..]),
    ] {
        for (data, name) in [(&d1, "day-01"), (&d2, "day-02")] {
            add_lits(reg, data, name, extra);
        }
    }
    // Both carry a layout file and binary artifacts: in the root when
    // flat, in shard directories otherwise.
    for reg in [&reg_flat, &reg_sharded] {
        assert!(reg.join("registry.layout").exists());
    }
    assert!(reg_flat.join("registry.manifest").exists());
    assert!(reg_flat.join("day-01.txns.bin").exists());
    assert!(reg_flat.join("day-01.lits.bin").exists());
    assert!(reg_sharded.join("shard-000").is_dir() && reg_sharded.join("shard-001").is_dir());

    // The matrix over both registries is byte-identical on stdout.
    let flat_out = run(&["matrix", "--dir", path_str(&reg_flat)]);
    let sharded_out = run(&["matrix", "--dir", path_str(&reg_sharded)]);
    assert_eq!(stdout(&flat_out), stdout(&sharded_out));
    assert!(stdout(&flat_out).contains("pairs 1"));

    // Asking an existing registry for a different layout is refused.
    let d1 = path_str(&d1);
    let clash = [
        "registry-add",
        "--dir",
        path_str(&reg_sharded),
        "--data",
        d1,
        "--name",
        "day-03",
        "--shards",
        "3",
    ];
    assert!(run_fail(&clash).contains("already exists with shards=2"));

    // The retired text format is a named error that creates nothing.
    let reg_text = dir.join("reg-text");
    let err = run_fail(&[
        "registry-add",
        "--dir",
        path_str(&reg_text),
        "--data",
        d1,
        "--name",
        "day-01",
        "--format",
        "text",
    ]);
    assert!(
        err.starts_with("error: --format text is not supported"),
        "{err}"
    );
    assert!(
        !reg_text.exists(),
        "a rejected --format must create nothing"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn missing_or_corrupt_artifacts_are_named_errors() {
    // The bare cause (`No such file or directory`, `bad magic`) does not
    // say which artifact to restore; the error must name its path.
    let dir = scratch("artifacts");
    let reg = dir.join("reg");
    for (name, seed) in [("a", "2"), ("b", "3"), ("c", "4")] {
        let data = dir.join(format!("{name}.txt"));
        gen_txns(&data, seed);
        add_lits(&reg, &data, name, &[]);
    }
    // `embed` reads only the models, so break model artifacts.
    let deleted = reg.join("a.lits.bin");
    std::fs::remove_file(&deleted).unwrap();
    let flipped = reg.join("b.lits.bin");
    let mut bytes = std::fs::read(&flipped).unwrap();
    bytes[0] ^= 0xff;
    std::fs::write(&flipped, bytes).unwrap();

    let r = path_str(&reg);
    for (broken, cause) in [
        (&deleted, "No such file or directory"),
        (&flipped, "bad magic"),
    ] {
        for args in [vec!["matrix", "--dir", r], vec!["embed", "--dir", r]] {
            let err = run_fail(&args);
            let named = format!("error: {}: ", path_str(broken));
            assert!(
                err.starts_with(&named) && err.contains(cause),
                "{args:?} must name {named:?}: {err}"
            );
        }
        // Repair the first breakage so the second one is reached.
        if broken == &deleted {
            std::fs::copy(reg.join("c.lits.bin"), &deleted).unwrap();
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_datasets_name_the_first_snapshot_at_every_thread_count() {
    // Datasets load inside the matrix's fan-out. With two of them broken,
    // the error is the earlier snapshot's in manifest order, whichever
    // worker reached which first.
    let dir = scratch("corrupt-datasets");
    let reg = dir.join("reg");
    for (name, seed) in [("a", "2"), ("b", "3"), ("c", "4"), ("d", "5")] {
        let data = dir.join(format!("{name}.txt"));
        gen_txns(&data, seed);
        add_lits(&reg, &data, name, &[]);
        let table = dir.join(format!("{name}.tbl"));
        run(&[
            "gen-class",
            "--out",
            path_str(&table),
            "--n",
            "300",
            "--function",
            if seed == "3" { "F3" } else { "F2" },
            "--seed",
            seed,
        ]);
        run(&[
            "registry-add",
            "--dir",
            path_str(&reg),
            "--data",
            path_str(&table),
            "--name",
            &format!("t{name}"),
            "--kind",
            "dt",
            "--max-depth",
            "4",
            "--min-leaf",
            "20",
        ]);
    }
    for (kind, ext, first, second) in [("lits", "txns", "b", "d"), ("dt", "tbl", "tb", "td")] {
        // One artifact truncated, one with a flipped byte mid-file.
        let truncated = reg.join(format!("{second}.{ext}.bin"));
        let bytes = std::fs::read(&truncated).unwrap();
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let flipped = reg.join(format!("{first}.{ext}.bin"));
        let mut bytes = std::fs::read(&flipped).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&flipped, bytes).unwrap();

        let named = format!("error: {}: ", path_str(&flipped));
        let mut seen = Vec::new();
        for threads in ["1", "2", "4", "7"] {
            let out = Command::new(bin())
                .args(["matrix", "--dir", path_str(&reg), "--kind", kind])
                .env("FOCUS_THREADS", threads)
                .output()
                .expect("failed to spawn focus-cli");
            let err = String::from_utf8_lossy(&out.stderr).into_owned();
            assert_eq!(out.status.code(), Some(1), "{kind} at {threads}: {err}");
            assert!(!err.contains("panicked"), "{kind} at {threads}: {err}");
            assert!(err.starts_with(&named), "{kind} at {threads}: {err}");
            seen.push(err);
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "{kind}: {seen:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn duplicate_registry_add_is_rejected_before_fitting() {
    let dir = scratch("duplicate");
    let data = dir.join("d.tbl");
    run(&[
        "gen-class",
        "--out",
        path_str(&data),
        "--n",
        "300",
        "--function",
        "F2",
    ]);
    let reg = dir.join("reg");
    let add = |name: &str, data: &str| -> Vec<String> {
        [
            "registry-add",
            "--dir",
            path_str(&reg),
            "--data",
            data,
            "--name",
            name,
            "--kind",
            "dt",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    };
    let args = add("day-01", path_str(&data));
    run(&args.iter().map(String::as_str).collect::<Vec<_>>());
    let before = tree_bytes(&reg);

    // The name is checked before the data is read, so even a missing data
    // file reports the duplicate.
    let missing = dir.join("missing.tbl");
    for data in [path_str(&data), path_str(&missing)] {
        let args = add("day-01", data);
        let err = run_fail(&args.iter().map(String::as_str).collect::<Vec<_>>());
        assert!(
            err.starts_with("error: snapshot \"day-01\" already registered"),
            "{err}"
        );
    }
    assert_eq!(
        tree_bytes(&reg),
        before,
        "a rejected add must change nothing"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn failed_registry_add_leaves_nothing_behind() {
    // The data is read and the model fitted before the registry is
    // created, so a first add that fails creates no directory, and a
    // failed add to an existing registry changes none of its bytes.
    let dir = scratch("failed-add");
    let data = dir.join("d.txt");
    gen_txns(&data, "2");
    let missing = dir.join("missing.txt");
    let garbage = dir.join("garbage.txt");
    std::fs::write(&garbage, "1 2 x\n").unwrap();
    let reg = dir.join("reg");
    let add = |data: &Path, name: &'static str, kind: &'static str| {
        let (reg, data) = (path_str(&reg).to_string(), path_str(data).to_string());
        move || {
            let args = [
                "registry-add",
                "--dir",
                &reg,
                "--data",
                &data,
                "--name",
                name,
                "--kind",
                kind,
            ];
            run_fail(&args)
        }
    };
    for bad in [&missing, &garbage] {
        let err = add(bad, "a", "lits")();
        assert!(err.contains(path_str(bad)), "{err}");
        assert!(!reg.exists(), "a failed first add must create nothing");
    }
    add_lits(&reg, &data, "a", &[]);
    let before = tree_bytes(&reg);
    for (bad, kind) in [(&missing, "lits"), (&garbage, "lits"), (&data, "dt")] {
        let err = add(bad, "b", kind)();
        assert!(err.contains(path_str(bad)), "{err}");
    }
    assert_eq!(tree_bytes(&reg), before, "a failed add must change nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mine_fails_on_a_bad_out_path_before_mining() {
    let dir = scratch("mine-out");
    let data = dir.join("d.txt");
    gen_txns(&data, "2");
    let out = dir.join("missing").join("m.model");
    let err = run_fail(&[
        "mine",
        "--data",
        path_str(&data),
        "--minsup",
        "0.05",
        "--out",
        path_str(&out),
    ]);
    assert!(
        err.starts_with(&format!("error: {}: ", path_str(&out))),
        "{err}"
    );
    assert!(!err.contains("frequent itemsets"), "mined anyway: {err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn old_format_registries_are_named_errors_and_left_untouched() {
    let dir = scratch("old-format");
    let data = dir.join("d.txt");
    gen_txns(&data, "2");
    // A flat manifest of an earlier release with no layout file, and a
    // layout file naming the retired text format.
    let cases = [
        (
            "old-flat",
            vec![("registry.manifest", "#focus-registry v2\n")],
            "registry.layout: missing",
        ),
        (
            "old-text",
            vec![
                ("registry.manifest", "#focus-registry v2\n"),
                (
                    "registry.layout",
                    "#focus-registry-layout v1\nshards 0\nformat text\n",
                ),
            ],
            "unsupported storage format \"text\"",
        ),
    ];
    for (tag, files, why) in cases {
        let reg = dir.join(tag);
        std::fs::create_dir_all(&reg).unwrap();
        for (file, text) in &files {
            std::fs::write(reg.join(file), text).unwrap();
        }
        let before = tree_bytes(&reg);
        let r = path_str(&reg);
        let d = path_str(&data);
        for args in [
            vec!["registry-add", "--dir", r, "--data", d, "--name", "a"],
            vec!["matrix", "--dir", r, "--kind", "lits"],
            vec!["embed", "--dir", r, "--kind", "lits"],
        ] {
            let err = run_fail(&args);
            assert!(
                err.starts_with(&format!("error: {r}")) && err.contains(why),
                "{tag} {args:?}: {err}"
            );
        }
        assert_eq!(
            tree_bytes(&reg),
            before,
            "{tag}: files must stay as they were"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_all_commands() {
    let out = run(&["help"]);
    let text = stdout(&out);
    for cmd in [
        "gen-assoc",
        "gen-class",
        "mine",
        "deviate",
        "bound",
        "qualify",
        "tree",
        "registry-add",
        "matrix",
        "embed",
    ] {
        assert!(text.contains(cmd), "usage must mention {cmd}");
    }
    assert!(
        !text.contains("deviate-dt"),
        "deviate --kind dt replaced it"
    );
}

#[test]
fn unknown_command_fails_nonzero() {
    let out = Command::new(bin())
        .arg("no-such-command")
        .output()
        .expect("failed to spawn focus-cli");
    assert!(!out.status.success());
    // The dt-only pairwise command went: `deviate --kind dt` replaces it.
    let err = run_fail(&["deviate-dt", "--d1", "a.tbl", "--d2", "b.tbl"]);
    assert!(err.contains("unknown command \"deviate-dt\""), "{err}");
}

/// Runs `focus-cli` expecting a clean failure: exit code 1, an `error:`
/// line, and no panic backtrace. Returns stderr.
fn run_fail(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("failed to spawn focus-cli");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
    assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
    assert!(err.starts_with("error: "), "{args:?}: {err}");
    err
}

#[test]
fn out_of_range_minsup_is_a_named_error() {
    let dir = scratch("minsup");
    let d = dir.join("d.txt");
    let reg = dir.join("reg");
    run(&[
        "gen-assoc",
        "--out",
        path_str(&d),
        "--n",
        "100",
        "--pats",
        "20",
    ]);
    let d = path_str(&d);
    for bad in ["0", "1.5", "nan", "-1"] {
        for args in [
            vec!["mine", "--data", d, "--minsup", bad],
            vec!["deviate", "--d1", d, "--d2", d, "--minsup", bad],
            vec!["qualify", "--d1", d, "--d2", d, "--minsup", bad],
            vec![
                "registry-add",
                "--dir",
                path_str(&reg),
                "--data",
                d,
                "--name",
                "a",
                "--minsup",
                bad,
            ],
        ] {
            let err = run_fail(&args);
            assert!(
                err.starts_with("error: --minsup must be in (0, 1], got"),
                "{args:?}: {err}"
            );
        }
    }
    assert!(
        !reg.exists(),
        "a rejected registry-add must not create the registry"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn qualify_rejects_zero_replicates() {
    let dir = scratch("reps");
    let d = dir.join("d.txt");
    run(&[
        "gen-assoc",
        "--out",
        path_str(&d),
        "--n",
        "100",
        "--pats",
        "20",
    ]);
    let d = path_str(&d);
    let err = run_fail(&["qualify", "--d1", d, "--d2", d, "--reps", "0"]);
    assert!(err.contains("--reps"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pairwise_commands_name_the_first_missing_input() {
    // Both inputs are read at once; with both missing, the error still
    // names `--d1`, as a one-after-the-other read would.
    let dir = scratch("missing-input");
    let (txt, tbl) = (dir.join("d.txt"), dir.join("d.tbl"));
    run(&[
        "gen-assoc",
        "--out",
        path_str(&txt),
        "--n",
        "100",
        "--pats",
        "20",
    ]);
    run(&[
        "gen-class",
        "--out",
        path_str(&tbl),
        "--n",
        "100",
        "--function",
        "F2",
    ]);
    let (m1, m2) = (dir.join("m1"), dir.join("m2"));
    let (m1, m2) = (path_str(&m1), path_str(&m2));
    for (command, kind, present) in [
        ("deviate", "lits", &txt),
        ("deviate", "dt", &tbl),
        ("deviate", "cluster", &tbl),
        ("qualify", "lits", &txt),
    ] {
        let mut args = vec![command, "--d1", m1, "--d2", m2];
        if command == "deviate" {
            args.extend(["--kind", kind]);
        }
        let err = run_fail(&args);
        assert!(
            err.starts_with(&format!("error: {m1}: ")),
            "{args:?}: {err}"
        );
        args[2] = path_str(present);
        let err = run_fail(&args);
        assert!(
            err.starts_with(&format!("error: {m2}: ")),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn registry_add_rejects_too_many_shards() {
    // Shard directories are named `shard-NNN`, so a count above 1000 is
    // rejected before the registry directory is made.
    let dir = scratch("shards");
    let d = dir.join("d.txt");
    let reg = dir.join("reg");
    run(&[
        "gen-assoc",
        "--out",
        path_str(&d),
        "--n",
        "100",
        "--pats",
        "20",
    ]);
    let err = run_fail(&[
        "registry-add",
        "--dir",
        path_str(&reg),
        "--data",
        path_str(&d),
        "--name",
        "a",
        "--format",
        "bin",
        "--shards",
        "1001",
    ]);
    assert!(err.contains("shard count 1001"), "{err}");
    assert!(!reg.exists(), "a rejected shard count must create nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn matrix_and_embed_name_a_bad_registry_dir() {
    // Both used to print only `No such file or directory (os error 2)`,
    // which names neither the directory nor what is missing.
    let dir = scratch("baddir");
    let missing = dir.join("missing");
    let empty = dir.join("empty");
    std::fs::create_dir_all(&empty).unwrap();
    for reg in [&missing, &empty] {
        let reg = path_str(reg);
        for args in [
            vec!["matrix", "--dir", reg, "--kind", "lits"],
            vec!["embed", "--dir", reg, "--kind", "lits"],
        ] {
            let out = Command::new(bin())
                .args(&args)
                .output()
                .expect("failed to spawn focus-cli");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
            assert!(
                err.starts_with(&format!("error: {reg}: not a registry")),
                "{args:?}: {err}"
            );
        }
    }
    assert!(!missing.exists(), "a read-only query must create nothing");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn empty_models_deviate_by_positive_zero() {
    // `Iterator::sum` over f64 starts at -0.0, so the empty aggregate of
    // two models without itemsets used to print as `-0.000000`.
    let dir = scratch("negzero");
    let d1 = dir.join("d1.txt");
    let d2 = dir.join("d2.txt");
    let m1 = dir.join("m1.model");
    let m2 = dir.join("m2.model");
    for (d, seed) in [(&d1, "1"), (&d2, "2")] {
        run(&[
            "gen-assoc",
            "--out",
            path_str(d),
            "--n",
            "500",
            "--seed",
            seed,
        ]);
    }
    let (d1, d2) = (path_str(&d1), path_str(&d2));
    for (data, model) in [(d1, &m1), (d2, &m2)] {
        run(&[
            "mine",
            "--data",
            data,
            "--minsup",
            "0.3",
            "--out",
            path_str(model),
        ]);
    }
    let dev = stdout(&run(&[
        "deviate", "--d1", d1, "--d2", d2, "--minsup", "0.3",
    ]));
    assert_eq!(dev.trim(), "0.000000");
    let bound = stdout(&run(&[
        "bound",
        "--m1",
        path_str(&m1),
        "--m2",
        path_str(&m2),
    ]));
    assert_eq!(bound.trim(), "0.000000");
    let q = stdout(&run(&[
        "qualify", "--d1", d1, "--d2", d2, "--minsup", "0.3", "--reps", "3",
    ]));
    assert!(q.starts_with("deviation 0.000000 "), "{q}");
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs focus-cli like [`run`], but kills it and fails the test if it has
/// not exited within `limit`.
fn run_within(args: &[&str], limit: Duration) -> Output {
    let start = Instant::now();
    let mut child = Command::new(bin())
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("failed to spawn focus-cli");
    while child.try_wait().expect("focus-cli runs").is_none() {
        if start.elapsed() > limit {
            child.kill().ok();
            panic!("focus-cli {args:?} did not finish within {limit:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let out = child.wait_with_output().expect("focus-cli output");
    assert!(out.status.success(), "focus-cli {args:?} failed: {out:?}");
    out
}

#[test]
fn qualify_finishes_on_small_inputs_at_the_default_minsup() {
    // Two 300-row files at minsup 0.01 (count floor 2). A with-replacement
    // draw duplicated rows, which made every subset of a duplicated row
    // frequent: `qualify --reps 1` ran for more than 20 s. Each
    // permutation replicate splits the pool, so no row repeats.
    let dir = scratch("small-qualify");
    let (d1, d2) = (dir.join("d1.txt"), dir.join("d2.txt"));
    for (d, seed) in [(&d1, "1"), (&d2, "2")] {
        run(&[
            "gen-assoc",
            "--out",
            path_str(d),
            "--n",
            "300",
            "--seed",
            seed,
        ]);
    }
    let (d1, d2) = (path_str(&d1), path_str(&d2));
    let dev = stdout(&run(&["deviate", "--d1", d1, "--d2", d2]));
    for reps in ["1", "99"] {
        let args = ["qualify", "--d1", d1, "--d2", d2, "--reps", reps];
        let q = stdout(&run_within(&args, Duration::from_secs(60)));
        let printed = q
            .strip_prefix("deviation ")
            .and_then(|r| r.split(' ').next());
        assert_eq!(printed, Some(dev.trim()), "{q}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn qualify_finishes_on_skewed_side_sizes() {
    // 100 rows against 10k at minsup 0.01: counts 2 and 100. Mining the
    // pool once at count 2 over all 10,100 rows ran for more than 60 s in
    // a release build; sides this far apart re-mine each replicate
    // instead, under a second even in a debug build.
    let dir = scratch("skewed-qualify");
    let (d1, d2) = (dir.join("d1.txt"), dir.join("d2.txt"));
    for (d, n, seed) in [(&d1, "100", "1"), (&d2, "10000", "2")] {
        run(&["gen-assoc", "--out", path_str(d), "--n", n, "--seed", seed]);
    }
    let (d1, d2) = (path_str(&d1), path_str(&d2));
    let dev = stdout(&run(&["deviate", "--d1", d1, "--d2", d2]));
    let args = ["qualify", "--d1", d1, "--d2", d2, "--reps", "9"];
    let q = stdout(&run_within(&args, Duration::from_secs(30)));
    let printed = q
        .strip_prefix("deviation ")
        .and_then(|r| r.split(' ').next());
    assert_eq!(printed, Some(dev.trim()), "{q}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unknown_flags_are_rejected_by_name() {
    // A typo'd flag used to be ignored silently, running with the default.
    let err = run_fail(&["mine", "--data", "d.txt", "--count-backnd", "auto"]);
    assert!(
        err.contains("unknown flag --count-backnd for mine"),
        "{err}"
    );
    // Flags are per command: a valid flag of another command is unknown.
    let err = run_fail(&["deviate", "--d1", "a", "--d2", "b", "--reps", "9"]);
    assert!(err.contains("unknown flag --reps for deviate"), "{err}");
    // The global --threads flag stays accepted everywhere.
    run(&["help", "--threads", "2"]);
}

#[test]
fn out_of_range_generator_arguments_are_named_errors() {
    // The generators assert on these values; the CLI must reject them
    // first, by name, with exit code 1 and no backtrace.
    let dir = scratch("gen-args");
    let out = dir.join("out");
    let out = path_str(&out);
    let mut cases: Vec<(&str, Vec<&str>)> = vec![("pats", vec!["gen-assoc", "--pats", "0"])];
    for bad in ["0", "-1", "nan"] {
        cases.push(("patlen", vec!["gen-assoc", "--patlen", bad]));
    }
    for bad in ["2", "-1", "nan", "inf"] {
        cases.push((
            "noise",
            vec!["gen-class", "--function", "F2", "--noise", bad],
        ));
    }
    for (flag, mut args) in cases {
        args.extend(["--out", out, "--n", "10"]);
        let res = Command::new(bin())
            .args(&args)
            .output()
            .expect("failed to spawn focus-cli");
        let err = String::from_utf8_lossy(&res.stderr);
        assert_eq!(res.status.code(), Some(1), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
        assert!(
            err.starts_with(&format!("error: --{flag} must be")),
            "{args:?}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn malformed_inputs_are_named_errors() {
    // Each fixture used to pass the reader and then panic in a fitter or
    // the bootstrap (exit 101). Every command that reads it must reject it
    // with exit code 1 and an `error:` line naming the problem.
    let dir = scratch("malformed");
    let good_tbl = dir.join("good.tbl");
    let good_txt = dir.join("good.txt");
    run(&[
        "gen-class",
        "--out",
        path_str(&good_tbl),
        "--n",
        "50",
        "--function",
        "F2",
    ]);
    run(&[
        "gen-assoc",
        "--out",
        path_str(&good_txt),
        "--n",
        "50",
        "--pats",
        "20",
    ]);
    let (good_tbl, good_txt) = (path_str(&good_tbl), path_str(&good_txt));
    let reg = dir.join("reg");
    let reg = path_str(&reg);
    let fixtures = [
        (
            "nan.tbl",
            "#num x\n#num y\n#classes 2\n1,2,0\n3,nan,1\n",
            "line 5: non-finite numeric \"nan\" for attribute \"y\"",
        ),
        (
            "inf.tbl",
            "#num x\n#num y\n#classes 2\n1,2,0\n3,inf,1\n",
            "line 5: non-finite numeric \"inf\" for attribute \"y\"",
        ),
        (
            "ninf.tbl",
            "#num x\n#num y\n#classes 2\n-inf,2,0\n",
            "line 4: non-finite numeric \"-inf\" for attribute \"x\"",
        ),
        ("classes0.tbl", "#num x\n#classes 0\n1,0\n", "#classes"),
        ("empty.tbl", "#num x\n#num y\n#classes 2\n", "has no rows"),
        ("empty.txt", "#items 10\n", "has no rows"),
    ];
    for (file, text, expected) in fixtures {
        let path = dir.join(file);
        std::fs::write(&path, text).unwrap();
        let p = path_str(&path);
        let commands: Vec<Vec<&str>> = if file.ends_with(".tbl") {
            vec![
                vec!["tree", "--data", p],
                vec!["deviate", "--kind", "dt", "--d1", p, "--d2", good_tbl],
                vec!["deviate", "--kind", "dt", "--d1", good_tbl, "--d2", p],
                vec!["deviate", "--kind", "cluster", "--d1", p, "--d2", good_tbl],
                vec!["deviate", "--kind", "cluster", "--d1", good_tbl, "--d2", p],
                vec![
                    "registry-add",
                    "--dir",
                    reg,
                    "--data",
                    p,
                    "--name",
                    "a",
                    "--kind",
                    "dt",
                ],
                vec![
                    "registry-add",
                    "--dir",
                    reg,
                    "--data",
                    p,
                    "--name",
                    "a",
                    "--kind",
                    "cluster",
                ],
            ]
        } else {
            vec![
                vec!["qualify", "--d1", p, "--d2", good_txt, "--reps", "3"],
                vec!["qualify", "--d1", good_txt, "--d2", p, "--reps", "3"],
            ]
        };
        for args in commands {
            let out = Command::new(bin())
                .args(&args)
                .output()
                .expect("failed to spawn focus-cli");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?} panicked:\n{err}");
            assert!(err.starts_with("error: "), "{args:?}: {err}");
            assert!(
                err.contains(p) && err.contains(expected),
                "{args:?} must name {p} and {expected:?}: {err}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bound_rejects_model_fractions_outside_the_unit_interval() {
    // `minsup 2` used to panic in `LitsModel::new` (exit 101); a support
    // of 7.5 or nan made `bound` print NaN and exit 0.
    let dir = scratch("model-fractions");
    let good = dir.join("good.model");
    std::fs::write(&good, "#lits-model minsup 0.1 n 10\n1 | 0.5\n").unwrap();
    let good = path_str(&good);
    assert_eq!(
        stdout(&run(&["bound", "--m1", good, "--m2", good])).trim(),
        "0.000000"
    );
    for (file, text, expected) in [
        (
            "minsup.model",
            "#lits-model minsup 2 n 10\n1 | 0.5\n",
            "line 1: minsup 2 is not a fraction in [0, 1]",
        ),
        (
            "minsup-nan.model",
            "#lits-model minsup nan n 10\n",
            "line 1: minsup NaN is not a fraction in [0, 1]",
        ),
        (
            "support.model",
            "#lits-model minsup 0.1 n 10\n1 | 7.5\n",
            "line 2: support 7.5 is not a fraction in [0, 1]",
        ),
        (
            "support-nan.model",
            "#lits-model minsup 0.1 n 10\n1 | 0.5\n2 | nan\n",
            "line 3: support NaN is not a fraction in [0, 1]",
        ),
    ] {
        let path = dir.join(file);
        std::fs::write(&path, text).unwrap();
        let p = path_str(&path);
        for args in [
            ["bound", "--m1", p, "--m2", good],
            ["bound", "--m1", good, "--m2", p],
        ] {
            let err = run_fail(&args);
            assert!(
                err.contains(&format!("{p}: {expected}")),
                "{args:?} must name {p} and {expected:?}: {err}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn format_flag_does_not_pick_a_layout() {
    // `--format bin` alone used to ask for a flat layout, so adding to a
    // sharded registry with it failed with `asked for shards=0`.
    let dir = scratch("format-layout");
    let d = dir.join("d.txt");
    let reg = dir.join("reg");
    gen_txns(&d, "2");
    add_lits(&reg, &d, "day-01", &["--shards", "2"]);
    add_lits(&reg, &d, "day-02", &["--format", "bin"]);
    add_lits(&reg, &d, "day-03", &["--format", "bin", "--shards", "2"]);
    let layout = std::fs::read_to_string(reg.join("registry.layout")).unwrap();
    assert!(layout.contains("shards 2\n"), "{layout}");
    let m = stdout(&run(&["matrix", "--dir", path_str(&reg)]));
    assert!(m.starts_with("pairs 3 "), "{m}");
    // Only --shards chooses a layout: asking for another one still fails.
    let err = run_fail(&[
        "registry-add",
        "--dir",
        path_str(&reg),
        "--data",
        path_str(&d),
        "--name",
        "day-04",
        "--minsup",
        "0.05",
        "--shards",
        "0",
    ]);
    assert!(err.contains("shards=2; asked for shards=0"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// A labelled table over `attrs` (`#num`/`#cat` header lines) with
/// `classes` classes and 60 rows.
fn write_table(path: &Path, attrs: &[&str], classes: u32) {
    let mut text: String = attrs.iter().map(|a| format!("{a}\n")).collect();
    text += &format!("#classes {classes}\n");
    for i in 0..60u32 {
        let row: Vec<String> = attrs
            .iter()
            .enumerate()
            .map(|(k, a)| {
                if a.starts_with("#cat") {
                    format!("{}", (i + k as u32) % 3)
                } else {
                    format!("{}", (i * (k as u32 + 1)) % 17)
                }
            })
            .collect();
        text += &format!("{},{}\n", row.join(","), (i / 7) % classes);
    }
    std::fs::write(path, text).unwrap();
}

/// Tables that pairwise disagree on their schema or class count: a base
/// table and, per mismatch, a table differing from it in that one way.
fn mismatched_tables(dir: &Path) -> (PathBuf, Vec<(PathBuf, &'static str)>) {
    let base = dir.join("base.tbl");
    write_table(&base, &["#num x", "#num y"], 2);
    let mut others = Vec::new();
    for (file, attrs, classes, why) in [
        ("fewer.tbl", &["#num x"][..], 2, "attributes"),
        ("cat.tbl", &["#num x", "#cat y 3"][..], 2, "categorical"),
        ("classes.tbl", &["#num x", "#num y"][..], 3, "classes"),
    ] {
        let path = dir.join(file);
        write_table(&path, attrs, classes);
        others.push((path, why));
    }
    (base, others)
}

#[test]
fn deviate_dt_rejects_tables_over_different_schemas() {
    // Each pair used to panic inside the GCR (exit 101). Cluster models
    // ignore class labels, so only the two schema mismatches apply there.
    let dir = scratch("dt-mismatch");
    let (base, others) = mismatched_tables(&dir);
    let base = path_str(&base);
    for (kind, cases) in [("dt", &others[..]), ("cluster", &others[..2])] {
        run(&["deviate", "--kind", kind, "--d1", base, "--d2", base]);
        for (other, why) in cases {
            let other = path_str(other);
            let why = if *why == "classes" {
                "classes"
            } else {
                "different attribute lists"
            };
            for (d1, d2) in [(base, other), (other, base)] {
                let err = run_fail(&["deviate", "--kind", kind, "--d1", d1, "--d2", d2]);
                assert!(
                    err.contains(d1) && err.contains(d2) && err.contains(why),
                    "{kind} {d1} vs {d2}: {err}"
                );
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pairwise_deviate_matches_the_registry_matrix() {
    // The pairwise path and the registry path fit the same models with
    // the same flags and measure them through the same engine, so `deviate
    // --kind K` prints the `exact` column of `matrix --kind K`.
    let dir = scratch("pairwise-vs-matrix");
    let (d1, d2) = (dir.join("d1.tbl"), dir.join("d2.tbl"));
    for (out, function, seed) in [(&d1, "F2", "1"), (&d2, "F3", "2")] {
        let args = ["--out", path_str(out), "--n", "400", "--function", function];
        run(&[&["gen-class"][..], &args, &["--seed", seed]].concat());
    }
    let (d1, d2) = (path_str(&d1), path_str(&d2));
    for (kind, flags) in [
        ("dt", &["--max-depth", "4", "--min-leaf", "10"][..]),
        ("cluster", &["--clusters", "3", "--seed", "5"][..]),
    ] {
        let reg = dir.join(format!("reg-{kind}"));
        for (name, data) in [("one", d1), ("two", d2)] {
            let args = ["--dir", path_str(&reg), "--data", data, "--name", name];
            run(&[&["registry-add"][..], &args, &["--kind", kind], flags].concat());
        }
        let args = ["deviate", "--kind", kind, "--d1", d1, "--d2", d2];
        let dev = stdout(&run(&[&args[..], flags].concat()));
        let m = stdout(&run(&["matrix", "--dir", path_str(&reg), "--kind", kind]));
        let line = m.lines().find(|l| l.starts_with("one two ")).unwrap();
        let exact = line.split_once(" exact ").map(|(_, e)| e);
        assert_eq!(exact, Some(dev.trim()), "{kind}: {m}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One registry per mismatch and family: `base` and the mismatching table
/// registered side by side as `--kind kind`.
fn mismatched_registries(dir: &Path) -> Vec<(PathBuf, &'static str)> {
    let (base, others) = mismatched_tables(dir);
    let mut regs = Vec::new();
    // Each kind takes only its own flags.
    for (kind, cases, extra) in [
        ("dt", &others[..], &[][..]),
        ("cluster", &others[..2], &["--clusters", "2"][..]),
    ] {
        for (i, (other, _)) in cases.iter().enumerate() {
            let reg = dir.join(format!("reg-{kind}-{i}"));
            for (name, data) in [("base", &base), ("other", other)] {
                let args = [
                    "registry-add",
                    "--dir",
                    path_str(&reg),
                    "--data",
                    path_str(data),
                    "--name",
                    name,
                    "--kind",
                    kind,
                ];
                run(&[&args[..], extra].concat());
            }
            regs.push((reg, kind));
        }
    }
    regs
}

#[test]
fn matrix_rejects_snapshots_over_different_schemas() {
    // Mixed class counts (dt) and mixed schemas (dt, cluster) used to
    // panic inside the GCR or the bound (exit 101).
    let dir = scratch("matrix-mismatch");
    for (reg, kind) in mismatched_registries(&dir) {
        for extra in [&[][..], &["--top", "1"], &["--threshold", "5"]] {
            let mut args = vec!["matrix", "--dir", path_str(&reg)];
            args.extend_from_slice(extra);
            let err = run_fail(&args);
            assert!(
                err.contains("snapshots \"base\" and \"other\" cannot be compared"),
                "{kind} {extra:?}: {err}"
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn embed_rejects_snapshots_over_different_schemas() {
    let dir = scratch("embed-mismatch");
    for (reg, kind) in mismatched_registries(&dir) {
        let err = run_fail(&["embed", "--dir", path_str(&reg), "--k", "1"]);
        assert!(
            err.contains("snapshots \"base\" and \"other\" cannot be compared"),
            "{kind}: {err}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One valid invocation per subcommand for the argument sweep: the
/// command's arguments as (flag, value) pairs, with the required flags,
/// the numeric flags and the flags naming a file to open.
struct Invocation {
    args: Vec<(&'static str, String)>,
    required: &'static [&'static str],
    numeric: &'static [&'static str],
    paths: &'static [&'static str],
}

impl Invocation {
    /// The command line, with `flag` dropped (`None`) or set to `value`.
    fn argv(&self, command: &str, flag: &str, value: Option<&str>) -> Vec<String> {
        let kept = self.args.iter().filter(|(f, _)| *f != flag);
        let mut argv = vec![command.to_string()];
        for (f, v) in kept
            .map(|(f, v)| (*f, v.as_str()))
            .chain(value.map(|v| (flag, v)))
        {
            argv.extend([format!("--{f}"), v.to_string()]);
        }
        argv
    }
}

#[test]
fn argument_fuzz_sweep_fails_cleanly() {
    // Every subcommand, from a valid tiny invocation, with one defect at
    // a time: a missing required flag, an unknown flag, a non-numeric or
    // negative numeric value, or a path in a nonexistent directory. Each
    // must exit 1 with an `error:` line naming the defect, never panic.
    let dir = scratch("fuzz");
    let p = |name: &str| path_str(&dir.join(name)).to_string();
    let (t1, t2, c1, c2, m1, m2, reg) = (
        p("t1.txt"),
        p("t2.txt"),
        p("c1.tbl"),
        p("c2.tbl"),
        p("m1.model"),
        p("m2.model"),
        p("reg"),
    );
    for (out, seed) in [(&t1, "1"), (&t2, "2")] {
        let args = ["--out", out, "--n", "60", "--pats", "10", "--seed", seed];
        run(&[&["gen-assoc"][..], &args].concat());
    }
    for (out, seed) in [(&c1, "1"), (&c2, "2")] {
        let args = [
            "--out",
            out,
            "--n",
            "60",
            "--function",
            "F2",
            "--seed",
            seed,
        ];
        run(&[&["gen-class"][..], &args].concat());
    }
    for (data, model, name) in [(&t1, &m1, "a"), (&t2, &m2, "b")] {
        run(&["mine", "--data", data, "--minsup", "0.2", "--out", model]);
        run(&[
            "registry-add",
            "--dir",
            &reg,
            "--data",
            data,
            "--name",
            name,
            "--minsup",
            "0.2",
        ]);
    }
    let a = |pairs: &[(&'static str, &str)]| -> Vec<(&'static str, String)> {
        pairs.iter().map(|&(f, v)| (f, v.to_string())).collect()
    };
    let fresh = |tag: &str| p(&format!("fresh-{tag}"));
    let cases: Vec<(&'static str, Invocation)> = vec![
        (
            "gen-assoc",
            Invocation {
                args: a(&[
                    ("out", &p("g.txt")),
                    ("n", "20"),
                    ("pats", "5"),
                    ("patlen", "2"),
                    ("pattern-seed", "1"),
                    ("seed", "2"),
                ]),
                required: &["out"],
                numeric: &["n", "pats", "patlen", "pattern-seed", "seed"],
                paths: &["out"],
            },
        ),
        (
            "gen-class",
            Invocation {
                args: a(&[
                    ("out", &p("g.tbl")),
                    ("n", "20"),
                    ("function", "F2"),
                    ("seed", "1"),
                    ("noise", "0.1"),
                ]),
                required: &["out", "function"],
                numeric: &["n", "seed", "noise"],
                paths: &["out"],
            },
        ),
        (
            "mine",
            Invocation {
                args: a(&[("data", &t1), ("minsup", "0.2"), ("out", &p("g.model"))]),
                required: &["data"],
                numeric: &["minsup"],
                paths: &["data", "out"],
            },
        ),
        (
            "deviate",
            Invocation {
                args: a(&[("d1", &t1), ("d2", &t2), ("minsup", "0.2")]),
                required: &["d1", "d2"],
                numeric: &["minsup"],
                paths: &["d1", "d2"],
            },
        ),
        (
            "bound",
            Invocation {
                args: a(&[("m1", &m1), ("m2", &m2)]),
                required: &["m1", "m2"],
                numeric: &[],
                paths: &["m1", "m2"],
            },
        ),
        (
            "qualify",
            Invocation {
                args: a(&[
                    ("d1", &t1),
                    ("d2", &t2),
                    ("minsup", "0.2"),
                    ("reps", "3"),
                    ("seed", "7"),
                ]),
                required: &["d1", "d2"],
                numeric: &["minsup", "reps", "seed"],
                paths: &["d1", "d2"],
            },
        ),
        (
            "tree",
            Invocation {
                args: a(&[("data", &c1), ("max-depth", "3"), ("min-leaf", "5")]),
                required: &["data"],
                numeric: &["max-depth", "min-leaf"],
                paths: &["data"],
            },
        ),
        (
            "deviate",
            Invocation {
                args: a(&[
                    ("d1", &c1),
                    ("d2", &c2),
                    ("kind", "dt"),
                    ("max-depth", "3"),
                    ("min-leaf", "5"),
                ]),
                required: &["d1", "d2"],
                numeric: &["max-depth", "min-leaf"],
                paths: &["d1", "d2"],
            },
        ),
        (
            "deviate",
            Invocation {
                args: a(&[
                    ("d1", &c1),
                    ("d2", &c2),
                    ("kind", "cluster"),
                    ("clusters", "2"),
                    ("seed", "1"),
                ]),
                required: &["d1", "d2"],
                numeric: &["clusters", "seed"],
                paths: &["d1", "d2"],
            },
        ),
        (
            "registry-add",
            Invocation {
                args: a(&[
                    ("dir", &fresh("lits")),
                    ("data", &t1),
                    ("name", "a"),
                    ("minsup", "0.2"),
                    ("shards", "2"),
                ]),
                required: &["dir", "data", "name"],
                numeric: &["minsup", "shards"],
                paths: &["data"],
            },
        ),
        (
            "registry-add",
            Invocation {
                args: a(&[
                    ("dir", &fresh("dt")),
                    ("data", &c1),
                    ("name", "a"),
                    ("kind", "dt"),
                    ("max-depth", "3"),
                    ("min-leaf", "5"),
                ]),
                required: &["dir", "data", "name"],
                numeric: &["max-depth", "min-leaf"],
                paths: &["data"],
            },
        ),
        (
            "registry-add",
            Invocation {
                args: a(&[
                    ("dir", &fresh("cluster")),
                    ("data", &c1),
                    ("name", "a"),
                    ("kind", "cluster"),
                    ("clusters", "2"),
                    ("seed", "1"),
                ]),
                required: &["dir", "data", "name"],
                numeric: &["clusters", "seed"],
                paths: &["data"],
            },
        ),
        (
            "matrix",
            Invocation {
                args: a(&[("dir", &reg), ("threshold", "0.1")]),
                required: &["dir"],
                numeric: &["threshold"],
                paths: &["dir"],
            },
        ),
        (
            "matrix",
            Invocation {
                args: a(&[("dir", &reg), ("top", "1")]),
                required: &["dir"],
                numeric: &["top"],
                paths: &["dir"],
            },
        ),
        (
            "embed",
            Invocation {
                args: a(&[("dir", &reg), ("k", "1")]),
                required: &["dir"],
                numeric: &["k"],
                paths: &["dir"],
            },
        ),
        (
            "help",
            Invocation {
                args: Vec::new(),
                required: &[],
                numeric: &[],
                paths: &[],
            },
        ),
    ];
    let missing = p("missing/none");
    for (command, inv) in &cases {
        // The sweep starts from an invocation that works (a registry-add
        // into a directory the sweep then removes again).
        let argv = inv.argv(command, "", None);
        run(&argv.iter().map(String::as_str).collect::<Vec<_>>());
        if *command == "registry-add" {
            let dir = argv.iter().position(|a| a == "--dir").unwrap() + 1;
            std::fs::remove_dir_all(&argv[dir]).unwrap();
        }
        let mut defects: Vec<(Vec<String>, String)> = Vec::new();
        for flag in inv.required {
            let expect = format!("missing required flag --{flag}");
            defects.push((inv.argv(command, flag, None), expect));
        }
        for flag in ["no-such-flag", "index-budget"] {
            let expect = format!("unknown flag --{flag} for {command}");
            defects.push((inv.argv(command, flag, Some("0")), expect));
        }
        for flag in inv.numeric.iter().chain(&["threads"]) {
            for bad in ["abc", "-1"] {
                defects.push((inv.argv(command, flag, Some(bad)), format!("--{flag}")));
            }
        }
        for flag in inv.paths {
            defects.push((inv.argv(command, flag, Some(&missing)), missing.clone()));
        }
        // deviate and registry-add take only their own kind's flags.
        if matches!(*command, "deviate" | "registry-add") {
            let kind = inv.args.iter().find(|(f, _)| *f == "kind");
            let kind = kind.map_or("lits", |(_, v)| v.as_str());
            for (flag, owner) in [
                ("minsup", "lits"),
                ("max-depth", "dt"),
                ("min-leaf", "dt"),
                ("clusters", "cluster"),
                ("seed", "cluster"),
            ] {
                if owner != kind {
                    let expect = format!(
                        "--{flag} is a {owner} flag; {command} --kind {kind} does not take it"
                    );
                    defects.push((inv.argv(command, flag, Some("1")), expect));
                }
            }
        }
        for (argv, expect) in defects {
            let out = Command::new(bin())
                .args(&argv)
                .output()
                .expect("failed to spawn focus-cli");
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{argv:?}: {err}");
            assert!(!err.contains("panicked"), "{argv:?} panicked:\n{err}");
            let line = err.lines().find(|l| l.starts_with("error: "));
            let line = line.unwrap_or_else(|| panic!("{argv:?}: no error line: {err}"));
            // A rejected negative float names its value, not its flag.
            let named = line.contains(&expect)
                || (argv.last().is_some_and(|v| v == "-1") && line.contains("-1"));
            assert!(named, "{argv:?} must name {expect:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
