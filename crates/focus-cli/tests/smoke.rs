//! End-to-end smoke test: drives the `focus-cli` binary through the full
//! lits pipeline (generate → mine → deviate → bound → qualify) and the dt
//! pipeline (generate → deviate-dt) on tiny datasets, asserting each step
//! exits 0 and emits a well-formed report.

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
        "deviate-dt",
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
        .expect("deviate-dt must print a number");
    assert!(dev.is_finite() && dev >= 0.0, "dt deviation {dev}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_sharded_registry_matrix_matches_text() {
    let dir = scratch("registry-bin");
    let d1 = dir.join("d1.txt");
    let d2 = dir.join("d2.txt");
    for (out, seed) in [(&d1, "2"), (&d2, "9")] {
        run(&[
            "gen-assoc",
            "--out",
            path_str(out),
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

    // The same snapshots into a classic text registry and a sharded
    // binary one.
    let reg_text = dir.join("reg-text");
    let reg_bin = dir.join("reg-bin");
    for (reg, extra) in [
        (&reg_text, &[][..]),
        (&reg_bin, &["--format", "bin", "--shards", "2"][..]),
    ] {
        for (data, name) in [(&d1, "day-01"), (&d2, "day-02")] {
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
    }
    // The binary registry's artifacts live in shard directories as .bin
    // files; nothing readable as text sits in the root.
    assert!(reg_bin.join("registry.layout").exists());
    assert!(reg_bin.join("shard-000").is_dir() && reg_bin.join("shard-001").is_dir());

    // The matrix over both registries is byte-identical on stdout.
    let matrix_args = |reg: &Path| {
        let r = path_str(reg).to_string();
        ["matrix", "--dir"]
            .into_iter()
            .map(String::from)
            .chain([r])
            .collect::<Vec<_>>()
    };
    let text_out = run(&matrix_args(&reg_text)
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>());
    let bin_out = run(&matrix_args(&reg_bin)
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>());
    assert_eq!(stdout(&text_out), stdout(&bin_out));
    assert!(stdout(&text_out).contains("pairs 1"));

    // Asking an existing registry for a different layout is refused.
    let clash = Command::new(bin())
        .args([
            "registry-add",
            "--dir",
            path_str(&reg_bin),
            "--data",
            path_str(&d1),
            "--name",
            "day-03",
            "--format",
            "text",
        ])
        .output()
        .expect("failed to spawn focus-cli");
    assert!(!clash.status.success(), "layout mismatch must fail");

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
        "deviate-dt",
    ] {
        assert!(text.contains(cmd), "usage must mention {cmd}");
    }
}

#[test]
fn unknown_command_fails_nonzero() {
    let out = Command::new(bin())
        .arg("no-such-command")
        .output()
        .expect("failed to spawn focus-cli");
    assert!(!out.status.success());
}

/// Runs `focus-cli` expecting a clean failure: non-zero exit, an `error:`
/// line, and no panic backtrace. Returns stderr.
fn run_fail(args: &[&str]) -> String {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("failed to spawn focus-cli");
    let err = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!out.status.success(), "{args:?} must fail");
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
    // The global flags stay accepted everywhere.
    run(&["help", "--threads", "2", "--index-budget", "0"]);
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
                vec!["deviate-dt", "--d1", p, "--d2", good_tbl],
                vec!["deviate-dt", "--d1", good_tbl, "--d2", p],
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
