//! `focus` — command-line interface to the FOCUS change-detection
//! framework.
//!
//! ```text
//! focus-cli gen-assoc  --out D1.txt --n 10000 [--pats 4000 --patlen 4 --pattern-seed 1 --seed 2]
//! focus-cli gen-class  --out D1.tbl --n 10000 --function F2 [--seed 1 --noise 0.05]
//! focus-cli mine       --data D1.txt --minsup 0.01 --out M1.model
//! focus-cli deviate    --d1 D1.txt --d2 D2.txt --minsup 0.01 [--f fa|fs] [--g sum|max]
//! focus-cli bound      --m1 M1.model --m2 M2.model
//! focus-cli qualify    --d1 D1.txt --d2 D2.txt --minsup 0.01 [--reps 99 --seed 7]
//! focus-cli tree       --data D1.tbl [--max-depth 10 --min-leaf 50] [--render]
//! focus-cli deviate-dt --d1 D1.tbl --d2 D2.tbl
//! focus-cli registry-add --dir REG --data D1.txt --name day-01 [--kind lits|dt|cluster] [--minsup 0.01] [--format text|bin --shards N]
//! focus-cli matrix     --dir REG [--kind k] [--threshold t | --top K] [--f fa|fs] [--g sum|max]
//! focus-cli embed      --dir REG [--kind k] [--k 2]
//! ```
//!
//! The last three drive the Section 4.1.1 exploratory loop: a *registry*
//! directory accumulates named snapshots (dataset + induced model) of any
//! model family — `--kind lits` mines frequent itemsets from transaction
//! data, `--kind dt` fits a decision tree to a labelled table, `--kind
//! cluster` runs k-means over a plain table. `matrix` computes every
//! pairwise deviation of one family's snapshots with δ*-screening (exact
//! scans only where the model-only bound exceeds `--threshold`, or, with
//! `--top K`, for the K largest bounds; the rest are pruned), and `embed`
//! places the collection in a k-dimensional space. All three families carry
//! a model-only bound, but screening is sound only under the default `--f
//! fa` (Theorem 4.2 and its leaf-mass / centroid-mass analogues bound the
//! absolute difference alone) — with `--f fs` every pair is scanned
//! regardless of the threshold. The lits and dt bounds are pseudo-metrics,
//! so their embeddings run straight off the δ* grid; the cluster bound is
//! not, so cluster embeddings use the exact deviations.
//!
//! Every command additionally accepts `--threads N` (0 = one worker per
//! core): dataset scans, model induction (decision-tree fitting included),
//! and the bootstrap fan-out run on that many threads with bit-identical
//! results. `FOCUS_THREADS` is the env-var equivalent. `--index-budget B`
//! caps the bytes the counting cost model may spend on vertical tid-bitset
//! indexes (`FOCUS_INDEX_BUDGET` is the env-var equivalent; `0` forces the
//! horizontal scan on every mining level but level 2, which is always one
//! horizontal pair pass, and on measure extension). Counts are
//! bit-identical for every budget.
//!
//! A flag the command does not know is an error, never silently ignored,
//! and `--minsup` must lie in (0, 1].
//!
//! Standalone datasets and models use the plain-text formats of
//! `focus_data::io` / `focus_core::persist`. Registries default to the
//! same text artifacts, but `registry-add --format bin [--shards N]`
//! creates one in the binary columnar format (per-section checksums,
//! zero-copy mmap loads) and/or a hash-sharded directory layout; `matrix`
//! and `embed` detect the layout automatically from `registry.layout`.

use focus_cluster::{KMeans, KMeansParams};
use focus_core::bound::lits_upper_bound;
use focus_core::deviation::{self, deviate_over_sources};
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::{ClusterFamily, DtFamily, LitsFamily, ModelFamily};
use focus_core::persist::{read_lits_model, write_lits_model};
use focus_core::qualify::qualify_transactions;
use focus_core::source::CountSource;
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_data::io::{
    read_labeled_table, read_transactions, write_labeled_table, write_transactions,
};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use focus_registry::{
    DeviationMatrix, MatrixParams, Registry, RegistryLayout, SnapshotFamily, SnapshotKind,
    StorageFormat,
};
use focus_tree::{DecisionTree, TreeParams};
use std::collections::HashMap;
use std::fs::File;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let flags = match parse_flags(&args[1..]) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = check_flags(command, &flags) {
        eprintln!("error: {e}");
        return ExitCode::FAILURE;
    }
    // Global flag, honoured by every command: worker threads for dataset
    // scans, model induction, and bootstrap fan-out (0 = one per core).
    // Results are bit-identical for any setting; without the flag the
    // FOCUS_THREADS environment variable (or the core count) decides.
    match opt::<usize>(&flags, "threads", 0) {
        Ok(n) => {
            if flags.contains_key("threads") {
                focus_exec::set_global_threads(n);
            }
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    // Global flag: byte budget for vertical tid-bitset indexes, consulted
    // by the counting cost model (0 = never build one). Overrides the
    // FOCUS_INDEX_BUDGET environment variable for this invocation.
    match index_budget(&flags) {
        Ok(Some(bytes)) => focus_core::source::set_global_index_budget(bytes),
        Ok(None) => {}
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    }
    let result = match command.as_str() {
        "gen-assoc" => gen_assoc(&flags),
        "gen-class" => gen_class(&flags),
        "mine" => mine(&flags),
        "deviate" => deviate(&flags),
        "bound" => bound(&flags),
        "qualify" => qualify(&flags),
        "tree" => tree(&flags),
        "deviate-dt" => deviate_dt(&flags),
        "registry-add" => registry_add(&flags),
        "matrix" => matrix(&flags),
        "embed" => embed(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
focus-cli — measure changes in data characteristics (FOCUS, PODS 1999)

commands:
  gen-assoc  --out <file> --n <rows> [--pats N --patlen L --pattern-seed S --seed S]
  gen-class  --out <file> --n <rows> --function F1..F10 [--seed S --noise P]
  mine       --data <txns> --minsup <f> [--out <model>]
  deviate    --d1 <txns> --d2 <txns> --minsup <f> [--f fa|fs] [--g sum|max]
  bound      --m1 <model> --m2 <model>
  qualify    --d1 <txns> --d2 <txns> --minsup <f> [--reps N --seed S]
  tree       --data <table> [--max-depth D --min-leaf N] [--render]
  deviate-dt --d1 <table> --d2 <table> [--max-depth D --min-leaf N]
  registry-add --dir <registry> --data <file> --name <name>
             [--kind lits|dt|cluster]  (default lits)
             [--minsup <f>]                      lits: mining threshold
             [--max-depth D --min-leaf N]        dt: tree induction
             [--clusters K --seed S]             cluster: k-means
             [--format text|bin] [--shards N]    layout of a *new* registry
                                                 (an existing one keeps its
                                                 own; bin = checksummed
                                                 columnar artifacts, mmap
                                                 reads; N hash shards)
  matrix     --dir <registry> [--kind k] [--threshold <t> | --top <K>]
             [--f fa|fs] [--g sum|max]
  embed      --dir <registry> [--kind k] [--k <dims>]

global flags:
  --threads N   worker threads for scans, model induction, and bootstrap
                fan-out (0 = one per core; default: FOCUS_THREADS env var,
                else core count). Results are bit-identical for every
                thread count.
  --index-budget B
                byte cap on vertical tid-bitset indexes, consulted by the
                counting cost model; accepts k/M/G suffixes (e.g. 512M),
                0 disables index builds (default: FOCUS_INDEX_BUDGET env
                var, else 128M). Counts are budget-independent.";

type Flags = HashMap<String, String>;

/// Flags every command accepts.
const GLOBAL_FLAGS: [&str; 2] = ["threads", "index-budget"];

/// The flags `command` accepts besides [`GLOBAL_FLAGS`], or `None` for an
/// unknown command (reported by the dispatcher instead).
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "gen-assoc" => &["out", "n", "pats", "patlen", "pattern-seed", "seed"],
        "gen-class" => &["out", "n", "function", "seed", "noise"],
        "mine" => &["data", "minsup", "out"],
        "deviate" => &["d1", "d2", "minsup", "f", "g"],
        "bound" => &["m1", "m2", "g"],
        "qualify" => &["d1", "d2", "minsup", "reps", "seed"],
        "tree" => &["data", "max-depth", "min-leaf", "render"],
        "deviate-dt" => &["d1", "d2", "max-depth", "min-leaf"],
        "registry-add" => &[
            "dir",
            "data",
            "name",
            "kind",
            "minsup",
            "max-depth",
            "min-leaf",
            "clusters",
            "seed",
            "format",
            "shards",
        ],
        "matrix" => &["dir", "kind", "threshold", "top", "f", "g"],
        "embed" => &["dir", "kind", "k"],
        "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// Rejects, by name, a flag `command` does not know — a typo must fail
/// loudly rather than silently fall back to the default.
fn check_flags(command: &str, flags: &Flags) -> Result<(), String> {
    let Some(known) = command_flags(command) else {
        return Ok(());
    };
    let accepted = |name: &str| known.contains(&name) || GLOBAL_FLAGS.contains(&name);
    let mut unknown: Vec<&str> = flags
        .keys()
        .map(String::as_str)
        .filter(|name| !accepted(name))
        .collect();
    unknown.sort_unstable();
    match unknown.first() {
        None => Ok(()),
        Some(name) => Err(format!(
            "unknown flag --{name} for {command} (accepted: {})",
            known
                .iter()
                .chain(&GLOBAL_FLAGS)
                .map(|f| format!("--{f}"))
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let Some(name) = a.strip_prefix("--") else {
            return Err(format!("expected a --flag, found {a:?}"));
        };
        // Boolean flags.
        let value = if name == "render" {
            "true".to_string()
        } else {
            it.next()
                .ok_or_else(|| format!("--{name} requires a value"))?
                .clone()
        };
        if flags.insert(name.to_string(), value).is_some() {
            return Err(format!("--{name} given more than once"));
        }
    }
    Ok(flags)
}

fn req<'a>(flags: &'a Flags, name: &str) -> Result<&'a str, String> {
    flags
        .get(name)
        .map(|s| s.as_str())
        .ok_or_else(|| format!("missing required flag --{name}"))
}

fn opt<T: std::str::FromStr>(flags: &Flags, name: &str, default: T) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    match flags.get(name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|e| format!("--{name}: {e}")),
    }
}

fn io_err(e: std::io::Error) -> String {
    e.to_string()
}

fn gen_assoc(flags: &Flags) -> Result<(), String> {
    let out = req(flags, "out")?;
    let n: usize = opt(flags, "n", 10_000)?;
    let pats: usize = opt(flags, "pats", 4000)?;
    if pats == 0 {
        return Err("--pats must be at least 1, got 0".into());
    }
    let patlen: f64 = opt(flags, "patlen", 4.0)?;
    if !(patlen.is_finite() && patlen >= 1.0) {
        return Err(format!(
            "--patlen must be a finite number ≥ 1, got {patlen}"
        ));
    }
    let pattern_seed: u64 = opt(flags, "pattern-seed", 1)?;
    let seed: u64 = opt(flags, "seed", 2)?;
    let params = AssocGenParams::paper(pats, patlen);
    let gen = AssocGen::new(params, pattern_seed);
    let data = gen.generate(n, seed);
    write_transactions(&data, File::create(out).map_err(io_err)?).map_err(io_err)?;
    eprintln!("wrote {} ({} transactions)", out, data.len());
    Ok(())
}

fn gen_class(flags: &Flags) -> Result<(), String> {
    let out = req(flags, "out")?;
    let n: usize = opt(flags, "n", 10_000)?;
    let fname = req(flags, "function")?;
    let function = ClassifyFn::ALL
        .into_iter()
        .find(|f| f.name().eq_ignore_ascii_case(fname))
        .ok_or_else(|| format!("unknown function {fname:?} (use F1..F10)"))?;
    let seed: u64 = opt(flags, "seed", 1)?;
    let noise: f64 = opt(flags, "noise", 0.0)?;
    if !(0.0..=1.0).contains(&noise) {
        return Err(format!("--noise must be in [0, 1], got {noise}"));
    }
    let data = ClassifyGen::new(function).noise(noise).generate(n, seed);
    write_labeled_table(&data, File::create(out).map_err(io_err)?).map_err(io_err)?;
    eprintln!(
        "wrote {} ({} rows, function {})",
        out,
        data.len(),
        function.name()
    );
    Ok(())
}

fn index_budget(flags: &Flags) -> Result<Option<usize>, String> {
    match flags.get("index-budget") {
        None => Ok(None),
        Some(s) => focus_core::source::parse_index_budget(s)
            .map(Some)
            .ok_or_else(|| {
                format!(
                    "--index-budget must be a byte count with an optional k, M or G suffix \
                 (e.g. 512M), or 0 to disable index builds, got {s:?}"
                )
            }),
    }
}

/// `--minsup` (default 0.01), validated to the (0, 1] range the miner
/// requires.
fn minsup(flags: &Flags) -> Result<f64, String> {
    let minsup: f64 = opt(flags, "minsup", 0.01)?;
    if minsup > 0.0 && minsup <= 1.0 {
        Ok(minsup)
    } else {
        Err(format!("--minsup must be in (0, 1], got {minsup}"))
    }
}

fn miner(minsup: f64) -> Apriori {
    Apriori::new(
        AprioriParams::with_minsup(minsup)
            .max_len(10)
            .min_count_floor(2),
    )
}

fn mine(flags: &Flags) -> Result<(), String> {
    let path = req(flags, "data")?;
    let minsup = minsup(flags)?;
    let data = read_transactions(File::open(path).map_err(io_err)?).map_err(io_err)?;
    let model = miner(minsup).mine(&data);
    eprintln!(
        "{}: {} frequent itemsets at minsup {}",
        path,
        model.len(),
        minsup
    );
    if let Some(out) = flags.get("out") {
        write_lits_model(&model, File::create(out).map_err(io_err)?).map_err(io_err)?;
        eprintln!("model written to {out}");
    } else {
        for (s, sup) in model.itemsets().iter().zip(model.supports()).take(20) {
            println!("{s}\t{sup:.4}");
        }
        if model.len() > 20 {
            println!("… ({} more)", model.len() - 20);
        }
    }
    Ok(())
}

fn diff_fn(flags: &Flags) -> Result<DiffFn, String> {
    match flags.get("f").map(|s| s.as_str()).unwrap_or("fa") {
        "fa" => Ok(DiffFn::Absolute),
        "fs" => Ok(DiffFn::Scaled),
        other => Err(format!("--f must be fa or fs, got {other:?}")),
    }
}

fn agg_fn(flags: &Flags) -> Result<AggFn, String> {
    match flags.get("g").map(|s| s.as_str()).unwrap_or("sum") {
        "sum" => Ok(AggFn::Sum),
        "max" => Ok(AggFn::Max),
        other => Err(format!("--g must be sum or max, got {other:?}")),
    }
}

fn deviate(flags: &Flags) -> Result<(), String> {
    let m = miner(minsup(flags)?);
    let (f, g) = (diff_fn(flags)?, agg_fn(flags)?);
    let d1 = read_transactions(File::open(req(flags, "d1")?).map_err(io_err)?).map_err(io_err)?;
    let d2 = read_transactions(File::open(req(flags, "d2")?).map_err(io_err)?).map_err(io_err)?;
    let (s1, s2) = (CountSource::borrowed(&d1), CountSource::borrowed(&d2));
    let (m1, m2) = (m.mine_source(&s1), m.mine_source(&s2));
    let gcr = LitsFamily::gcr(&m1, &m2);
    let dev =
        deviate_over_sources::<LitsFamily>(gcr, &m1, &s1, &m2, &s2, f, g, Parallelism::Global);
    println!("{:.6}", dev.value);
    eprintln!(
        "GCR: {} regions; models: {} and {} itemsets",
        dev.gcr.len(),
        m1.len(),
        m2.len()
    );
    Ok(())
}

fn bound(flags: &Flags) -> Result<(), String> {
    let m1 = read_lits_model(File::open(req(flags, "m1")?).map_err(io_err)?).map_err(io_err)?;
    let m2 = read_lits_model(File::open(req(flags, "m2")?).map_err(io_err)?).map_err(io_err)?;
    println!("{:.6}", lits_upper_bound(&m1, &m2, agg_fn(flags)?));
    Ok(())
}

fn qualify(flags: &Flags) -> Result<(), String> {
    let m = miner(minsup(flags)?);
    let reps: usize = opt(flags, "reps", 99)?;
    if reps == 0 {
        return Err("--reps must be at least 1: a significance needs bootstrap replicates".into());
    }
    let seed: u64 = opt(flags, "seed", 7)?;
    let d1 = read_transactions(File::open(req(flags, "d1")?).map_err(io_err)?).map_err(io_err)?;
    let d2 = read_transactions(File::open(req(flags, "d2")?).map_err(io_err)?).map_err(io_err)?;
    let pipeline = |a: &focus_core::data::TransactionSet, b: &focus_core::data::TransactionSet| {
        let (sa, sb) = (CountSource::borrowed(a), CountSource::borrowed(b));
        let (ma, mb) = (m.mine_source(&sa), m.mine_source(&sb));
        let (f, g) = (DiffFn::Absolute, AggFn::Sum);
        let gcr = LitsFamily::gcr(&ma, &mb);
        deviate_over_sources::<LitsFamily>(gcr, &ma, &sa, &mb, &sb, f, g, Parallelism::Global).value
    };
    let observed = pipeline(&d1, &d2);
    let q = qualify_transactions(&d1, &d2, observed, reps, seed, pipeline);
    println!(
        "deviation {:.6}  significance {:.2}%",
        observed, q.significance_percent
    );
    Ok(())
}

fn tree_params(flags: &Flags, n: usize) -> Result<TreeParams, String> {
    Ok(TreeParams::default()
        .max_depth(opt(flags, "max-depth", 10)?)
        .min_leaf(opt(flags, "min-leaf", (n / 200).max(5))?))
}

fn tree(flags: &Flags) -> Result<(), String> {
    let data =
        read_labeled_table(File::open(req(flags, "data")?).map_err(io_err)?).map_err(io_err)?;
    let t = DecisionTree::fit(&data, tree_params(flags, data.len())?);
    eprintln!(
        "tree: {} leaves, depth {}, training error {:.4}",
        t.n_leaves(),
        t.depth(),
        t.misclassification_rate(&data)
    );
    if flags.contains_key("render") {
        print!("{}", t.render());
    }
    Ok(())
}

fn deviate_dt(flags: &Flags) -> Result<(), String> {
    let d1 = read_labeled_table(File::open(req(flags, "d1")?).map_err(io_err)?).map_err(io_err)?;
    let d2 = read_labeled_table(File::open(req(flags, "d2")?).map_err(io_err)?).map_err(io_err)?;
    let m1 = DecisionTree::fit(&d1, tree_params(flags, d1.len())?).to_model();
    let m2 = DecisionTree::fit(&d2, tree_params(flags, d2.len())?).to_model();
    let (f, g) = (DiffFn::Absolute, AggFn::Sum);
    let dev = deviation::deviate::<DtFamily>(&m1, &d1, &m2, &d2, f, g, Parallelism::Global);
    println!("{:.6}", dev.value);
    eprintln!(
        "GCR: {} cells from {} × {} leaves",
        dev.gcr.cells.len(),
        m1.leaves().len(),
        m2.leaves().len()
    );
    Ok(())
}

fn parse_kind(
    flags: &Flags,
    default: Option<SnapshotKind>,
) -> Result<Option<SnapshotKind>, String> {
    match flags.get("kind") {
        None => Ok(default),
        Some(s) => SnapshotKind::parse(s)
            .map(Some)
            .ok_or_else(|| format!("--kind must be lits, dt or cluster, got {s:?}")),
    }
}

/// The snapshot family a `matrix`/`embed` run operates on: the `--kind`
/// flag if given, else the registry's single kind — a mixed registry
/// without `--kind` is ambiguous and errors.
fn registry_kind(reg: &Registry, flags: &Flags) -> Result<SnapshotKind, String> {
    if let Some(kind) = parse_kind(flags, None)? {
        return Ok(kind);
    }
    let kinds = reg.kinds();
    match kinds.as_slice() {
        [] => Err("registry holds no snapshots".to_string()),
        [one] => Ok(*one),
        many => Err(format!(
            "registry holds multiple snapshot kinds ({}); pick one with --kind",
            many.iter()
                .map(|k| k.as_str())
                .collect::<Vec<_>>()
                .join(", ")
        )),
    }
}

/// A crashed append can leave one unterminated manifest line; the registry
/// ignores it on open, but the operator should hear about it.
fn warn_torn(reg: &Registry) {
    let torn = reg.torn_lines();
    if torn > 0 {
        eprintln!(
            "warning: ignored {torn} torn trailing manifest line(s) (crashed append); \
             the affected snapshot can be re-added"
        );
    }
}

fn registry_add(flags: &Flags) -> Result<(), String> {
    let dir = req(flags, "dir")?;
    let name = req(flags, "name")?;
    let data_path = req(flags, "data")?;
    let kind = parse_kind(flags, Some(SnapshotKind::Lits))?.expect("defaulted");
    // Validated before the registry is touched, so a bad threshold leaves
    // no half-created directory behind.
    let minsup = minsup(flags)?;
    // --format/--shards pick the layout of a *new* registry; an existing
    // one keeps the layout it was created with (a mismatch errors).
    let mut reg = if flags.contains_key("format") || flags.contains_key("shards") {
        let format = match flags.get("format") {
            None => StorageFormat::Text,
            Some(s) => StorageFormat::parse(s)
                .ok_or_else(|| format!("--format must be text or bin, got {s:?}"))?,
        };
        let layout = RegistryLayout {
            shards: opt(flags, "shards", 0)?,
            format,
        };
        Registry::open_or_create_with(dir, layout)
    } else {
        Registry::open_or_create(dir)
    }
    .map_err(io_err)?;
    warn_torn(&reg);
    let entry = match kind {
        SnapshotKind::Lits => {
            let data = read_transactions(File::open(data_path).map_err(io_err)?).map_err(io_err)?;
            reg.add(name, &data, minsup).map_err(io_err)?
        }
        SnapshotKind::Dt => {
            let data =
                read_labeled_table(File::open(data_path).map_err(io_err)?).map_err(io_err)?;
            let model = DecisionTree::fit(&data, tree_params(flags, data.len())?).to_model();
            reg.add_snapshot::<DtFamily>(name, &data, &model)
                .map_err(io_err)?
        }
        SnapshotKind::Cluster => {
            let data = focus_data::io::read_table(File::open(data_path).map_err(io_err)?)
                .map_err(io_err)?;
            let k: usize = opt(flags, "clusters", 3)?;
            if k == 0 {
                return Err("--clusters must be at least 1".to_string());
            }
            let seed: u64 = opt(flags, "seed", 0)?;
            let model = KMeans::new(KMeansParams::new(k).seed(seed))
                .fit(&data, Parallelism::Global)
                .to_model(&data);
            reg.add_snapshot::<ClusterFamily>(name, &data, &model)
                .map_err(io_err)?
        }
    };
    let minsup_note = match entry.minsup {
        Some(ms) => format!(" at minsup {ms}"),
        None => String::new(),
    };
    eprintln!(
        "registered {:?} in {} (kind {}, {} rows, {} regions{})",
        entry.name, dir, entry.kind, entry.n_rows, entry.n_regions, minsup_note
    );
    Ok(())
}

fn matrix(flags: &Flags) -> Result<(), String> {
    let dir = req(flags, "dir")?;
    let threshold: f64 = opt(flags, "threshold", 0.0)?;
    let top: Option<usize> = match flags.get("top") {
        None => None,
        Some(v) => Some(v.parse().map_err(|e| format!("--top: {e}"))?),
    };
    if top.is_some() && flags.contains_key("threshold") {
        return Err("--top replaces --threshold; pass only one".to_string());
    }
    let reg = Registry::open(dir).map_err(io_err)?;
    warn_torn(&reg);
    let kind = registry_kind(&reg, flags)?;
    let params = MatrixParams {
        diff: diff_fn(flags)?,
        agg: agg_fn(flags)?,
        threshold,
        top,
        ..MatrixParams::default()
    };
    let m = match kind {
        SnapshotKind::Lits => reg.matrix_of::<LitsFamily>(&params),
        SnapshotKind::Dt => reg.matrix_of::<DtFamily>(&params),
        SnapshotKind::Cluster => reg.matrix_of::<ClusterFamily>(&params),
    }
    .map_err(io_err)?;
    match top {
        Some(k) => println!(
            "pairs {} scanned {} pruned {} top {}",
            m.n_pairs(),
            m.scanned(),
            m.pruned(),
            k
        ),
        None => println!(
            "pairs {} scanned {} pruned {} threshold {:.6}",
            m.n_pairs(),
            m.scanned(),
            m.pruned(),
            m.threshold()
        ),
    }
    let names = m.names();
    for i in 0..m.len() {
        for j in (i + 1)..m.len() {
            match (m.has_bounds(), m.exact(i, j)) {
                (true, Some(e)) => println!(
                    "{} {} bound {:.6} exact {:.6}",
                    names[i],
                    names[j],
                    m.bound(i, j),
                    e
                ),
                (true, None) => println!(
                    "{} {} bound {:.6} pruned",
                    names[i],
                    names[j],
                    m.bound(i, j)
                ),
                // Non-dominated screening (e.g. --f fs) scans every pair.
                (false, Some(e)) => println!("{} {} exact {:.6}", names[i], names[j], e),
                (false, None) => unreachable!("unscreened matrices are complete"),
            }
        }
    }
    Ok(())
}

fn embed(flags: &Flags) -> Result<(), String> {
    let dir = req(flags, "dir")?;
    let k: usize = opt(flags, "k", 2)?;
    let reg = Registry::open(dir).map_err(io_err)?;
    warn_torn(&reg);
    // Metric families (lits, dt) embed straight off the δ* bound grid, so
    // every exact scan can be pruned by screening at +∞. Cluster bounds are
    // not a metric — the embedding needs the exact deviations, so scan all
    // pairs with threshold 0.
    fn matrix_for_embed<F: SnapshotFamily>(reg: &Registry) -> std::io::Result<DeviationMatrix> {
        let params = MatrixParams {
            threshold: if F::HAS_BOUND && F::BOUND_IS_METRIC {
                f64::INFINITY
            } else {
                0.0
            },
            ..MatrixParams::default()
        };
        reg.matrix_of::<F>(&params)
    }
    let m = match registry_kind(&reg, flags)? {
        SnapshotKind::Lits => matrix_for_embed::<LitsFamily>(&reg),
        SnapshotKind::Dt => matrix_for_embed::<DtFamily>(&reg),
        SnapshotKind::Cluster => matrix_for_embed::<ClusterFamily>(&reg),
    }
    .map_err(io_err)?;
    let coords = m.embed(k).map_err(|e| e.to_string())?;
    for (name, c) in m.names().iter().zip(&coords) {
        let cs: Vec<String> = c.iter().map(|x| format!("{x:.6}")).collect();
        println!("{} {}", name, cs.join(" "));
    }
    let stress = m.stress(&coords).map_err(|e| e.to_string())?;
    println!("stress {stress:.6}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags_of(args: &[&str]) -> Flags {
        parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>()).unwrap()
    }

    #[test]
    fn parse_flags_pairs_and_booleans() {
        let f = flags_of(&["--d1", "a.txt", "--render", "--minsup", "0.05"]);
        assert_eq!(f.get("d1").map(|s| s.as_str()), Some("a.txt"));
        assert_eq!(f.get("render").map(|s| s.as_str()), Some("true"));
        assert_eq!(f.get("minsup").map(|s| s.as_str()), Some("0.05"));
    }

    #[test]
    fn parse_flags_rejects_positional() {
        let args = vec!["oops".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_dangling_flag() {
        let args = vec!["--out".to_string()];
        assert!(parse_flags(&args).is_err());
    }

    #[test]
    fn parse_flags_rejects_repeated_flag() {
        let parse =
            |args: &[&str]| parse_flags(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>());
        assert_eq!(
            parse(&["--minsup", "0.05", "--d1", "a", "--minsup", "0.5"]).unwrap_err(),
            "--minsup given more than once"
        );
        assert_eq!(
            parse(&["--render", "--data", "d", "--render"]).unwrap_err(),
            "--render given more than once"
        );
    }

    #[test]
    fn required_and_optional_lookup() {
        let f = flags_of(&["--n", "500"]);
        assert_eq!(req(&f, "n").unwrap(), "500");
        assert!(req(&f, "out").is_err());
        assert_eq!(opt::<usize>(&f, "n", 10).unwrap(), 500);
        assert_eq!(opt::<usize>(&f, "missing", 10).unwrap(), 10);
        assert!(opt::<usize>(&flags_of(&["--n", "abc"]), "n", 1).is_err());
    }

    #[test]
    fn diff_and_agg_parsing() {
        assert!(matches!(diff_fn(&flags_of(&[])).unwrap(), DiffFn::Absolute));
        assert!(matches!(
            diff_fn(&flags_of(&["--f", "fs"])).unwrap(),
            DiffFn::Scaled
        ));
        assert!(diff_fn(&flags_of(&["--f", "zzz"])).is_err());
        assert_eq!(agg_fn(&flags_of(&["--g", "max"])).unwrap(), AggFn::Max);
        assert!(agg_fn(&flags_of(&["--g", "median"])).is_err());
    }

    #[test]
    fn minsup_flag_validation() {
        assert_eq!(minsup(&flags_of(&[])).unwrap(), 0.01);
        assert_eq!(minsup(&flags_of(&["--minsup", "1"])).unwrap(), 1.0);
        for bad in ["0", "1.5", "nan", "-1"] {
            let err = minsup(&flags_of(&["--minsup", bad])).unwrap_err();
            assert!(err.starts_with("--minsup must be in (0, 1], got"), "{err}");
        }
        assert!(minsup(&flags_of(&["--minsup", "lots"])).is_err());
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        assert!(check_flags("mine", &flags_of(&["--data", "d", "--threads", "2"])).is_ok());
        let err =
            check_flags("mine", &flags_of(&["--data", "d", "--count-backnd", "x"])).unwrap_err();
        assert!(err.contains("--count-backnd"), "{err}");
        assert!(err.contains("--minsup"), "{err}: lists what is accepted");
        // Flags are per command: --reps belongs to qualify only.
        assert!(check_flags("deviate", &flags_of(&["--reps", "9"])).is_err());
        assert!(check_flags("qualify", &flags_of(&["--reps", "9"])).is_ok());
        // Unknown commands are the dispatcher's error, not this check's.
        assert!(check_flags("no-such-command", &flags_of(&["--x", "1"])).is_ok());
    }

    #[test]
    fn benchmark_invocations_are_accepted() {
        // The flag sets the repository benchmark drives the CLI with.
        for (command, args) in [
            (
                "deviate",
                &["--d1", "a", "--d2", "b", "--minsup", "0.01"][..],
            ),
            (
                "qualify",
                &[
                    "--d1", "a", "--d2", "b", "--minsup", "0.01", "--reps", "9", "--seed", "7",
                ],
            ),
            (
                "registry-add",
                &[
                    "--dir", "r", "--data", "d", "--name", "n", "--format", "bin", "--shards", "4",
                    "--minsup", "0.01",
                ],
            ),
            (
                "registry-add",
                &["--dir", "r", "--data", "d", "--name", "n", "--kind", "dt"],
            ),
            ("matrix", &["--kind", "lits", "--top", "10", "--dir", "r"]),
            ("matrix", &["--kind", "lits", "--f", "fs", "--dir", "r"]),
            ("embed", &["--kind", "lits", "--dir", "r"]),
        ] {
            check_flags(command, &flags_of(args)).unwrap();
        }
    }

    #[test]
    fn index_budget_flag_parsing() {
        assert_eq!(index_budget(&flags_of(&[])).unwrap(), None);
        assert_eq!(
            index_budget(&flags_of(&["--index-budget", "64M"])).unwrap(),
            Some(64 << 20)
        );
        assert_eq!(
            index_budget(&flags_of(&["--index-budget", "0"])).unwrap(),
            Some(0)
        );
        // The rejection spells out the accepted forms.
        let err = index_budget(&flags_of(&["--index-budget", "lots"])).unwrap_err();
        for hint in ["byte count", "k", "M", "G", "0"] {
            assert!(err.contains(hint), "{err:?} should mention {hint:?}");
        }
        assert!(err.contains("lots"));
    }

    #[test]
    fn end_to_end_through_tempfiles() {
        let dir = std::env::temp_dir().join("focus-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let d1 = dir.join("d1.txt");
        let m1 = dir.join("m1.model");
        let mut f = Flags::new();
        f.insert("out".into(), d1.to_str().unwrap().into());
        f.insert("n".into(), "500".into());
        f.insert("pats".into(), "50".into());
        gen_assoc(&f).unwrap();
        let mut f = Flags::new();
        f.insert("data".into(), d1.to_str().unwrap().into());
        f.insert("minsup".into(), "0.05".into());
        f.insert("out".into(), m1.to_str().unwrap().into());
        mine(&f).unwrap();
        let model = read_lits_model(File::open(&m1).unwrap()).unwrap();
        assert!(!model.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
