//! `focus` — command-line interface to the FOCUS change-detection
//! framework.
//!
//! ```text
//! focus-cli gen-assoc  --out D1.txt --n 10000 [--pats 4000 --patlen 4 --pattern-seed 1 --seed 2]
//! focus-cli gen-class  --out D1.tbl --n 10000 --function F2 [--seed 1 --noise 0.05]
//! focus-cli mine       --data D1.txt --minsup 0.01 --out M1.model
//! focus-cli deviate    --d1 D1.txt --d2 D2.txt [--kind lits|dt|cluster] [--minsup 0.01] [--f fa|fs] [--g sum|max]
//! focus-cli bound      --m1 M1.model --m2 M2.model
//! focus-cli qualify    --d1 D1.txt --d2 D2.txt --minsup 0.01 [--reps 99 --seed 7]
//! focus-cli tree       --data D1.tbl [--max-depth 10 --min-leaf 50] [--render]
//! focus-cli registry-add --dir REG --data D1.txt --name day-01 [--kind lits|dt|cluster] [--minsup 0.01] [--shards N]
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
//! results. `FOCUS_THREADS` is the env-var equivalent. The counting cost
//! model's cap on vertical tid-bitset indexes is a constant of the
//! library; no flag changes it.
//!
//! A flag the command does not know is an error, never silently ignored,
//! and `--minsup` must lie in (0, 1]. `deviate` and `registry-add` read and
//! fit every kind through one helper and take only `--kind`'s own flags
//! (`--minsup` for lits, `--max-depth`/`--min-leaf` for dt,
//! `--clusters`/`--seed` for cluster); another kind's flag is an error.
//! `registry-add` reads the data and fits the model before it creates a new
//! registry, so a failed add leaves no directory behind.
//!
//! Standalone datasets and models use the plain-text formats of
//! `focus_data::io` / `focus_core::persist`. Registries store every
//! snapshot in the binary columnar format of `focus_registry::binfmt`
//! (per-section checksums, zero-copy mmap loads); `registry-add --shards
//! N` creates a hash-sharded directory layout instead of a flat one, and
//! `matrix` and `embed` read the layout from `registry.layout`.
//! `--format bin` names that one format and is accepted for compatibility
//! (it never picks a layout); any other `--format` is an error. Comparing
//! tables or snapshots over different schemas or class sets is an error
//! that names both inputs.

use focus_cluster::{KMeans, KMeansParams};
use focus_core::bound::lits_upper_bound;
use focus_core::data::{LabeledTable, Table, TransactionSet};
use focus_core::deviation::deviate_over_sources;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::{ClusterFamily, DtFamily, LitsFamily, ModelFamily};
use focus_core::model::{ClusterModel, DtModel, LitsModel};
use focus_core::persist::{read_lits_model, write_lits_model};
use focus_core::qualify;
use focus_core::source::CountSource;
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_data::io::{
    read_labeled_table, read_transactions, write_labeled_table, write_transactions,
};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use focus_registry::{
    DeviationMatrix, MatrixParams, Registry, RegistryLayout, SnapshotEntry, SnapshotFamily,
    SnapshotKind, StorageFormat,
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
    let result = match command.as_str() {
        "gen-assoc" => gen_assoc(&flags),
        "gen-class" => gen_class(&flags),
        "mine" => mine(&flags),
        "deviate" => deviate(&flags),
        "bound" => bound(&flags),
        "qualify" => qualify(&flags),
        "tree" => tree(&flags),
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
  deviate    --d1 <file> --d2 <file> [--kind lits|dt|cluster]  (default lits)
             [--f fa|fs] [--g sum|max] [kind flags]
  bound      --m1 <model> --m2 <model>
  qualify    --d1 <txns> --d2 <txns> --minsup <f> [--reps N --seed S]
  tree       --data <table> [--max-depth D --min-leaf N] [--render]
  registry-add --dir <registry> --data <file> --name <name>
             [--kind lits|dt|cluster]  (default lits) [kind flags]
             [--shards N]                        layout of a *new* registry:
                                                 N hash shards, 0 = flat (an
                                                 existing one keeps its own)
             [--format bin]                      the one artifact format
                                                 (checksummed columnar
                                                 artifacts, mmap reads);
                                                 never picks a layout
  matrix     --dir <registry> [--kind k] [--threshold <t> | --top <K>]
             [--f fa|fs] [--g sum|max]
  embed      --dir <registry> [--kind k] [--k <dims>]

kind flags (deviate, registry-add; another kind's flag is an error):
  lits       [--minsup <f>]                      mining threshold
  dt         [--max-depth D --min-leaf N]        tree induction
  cluster    [--clusters K --seed S]             k-means

global flags:
  --threads N   worker threads for scans, model induction, and bootstrap
                fan-out (0 = one per core; default: FOCUS_THREADS env var,
                else core count). Results are bit-identical for every
                thread count.";

type Flags = HashMap<String, String>;

/// Flags every command accepts.
const GLOBAL_FLAGS: [&str; 1] = ["threads"];

/// The flags only one kind takes. `deviate` and `registry-add`, the
/// commands that fit a model, accept these too, but only `--kind`'s own.
const KIND_FLAGS: [(SnapshotKind, &[&str]); 3] = [
    (SnapshotKind::Lits, &["minsup"]),
    (SnapshotKind::Dt, &["max-depth", "min-leaf"]),
    (SnapshotKind::Cluster, &["clusters", "seed"]),
];

/// The flags `command` accepts besides [`GLOBAL_FLAGS`] and
/// [`KIND_FLAGS`], or `None` for an unknown command (reported by the
/// dispatcher instead).
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "gen-assoc" => &["out", "n", "pats", "patlen", "pattern-seed", "seed"],
        "gen-class" => &["out", "n", "function", "seed", "noise"],
        "mine" => &["data", "minsup", "out"],
        "deviate" => &["d1", "d2", "kind", "f", "g"],
        "bound" => &["m1", "m2", "g"],
        "qualify" => &["d1", "d2", "minsup", "reps", "seed"],
        "tree" => &["data", "max-depth", "min-leaf", "render"],
        "registry-add" => &["dir", "data", "name", "kind", "format", "shards"],
        "matrix" => &["dir", "kind", "threshold", "top", "f", "g"],
        "embed" => &["dir", "kind", "k"],
        "help" | "--help" | "-h" => &[],
        _ => return None,
    })
}

/// Rejects, by name, a flag `command` does not know — a typo must fail
/// loudly rather than silently fall back to the default — and another
/// kind's flag on a command that fits a model.
fn check_flags(command: &str, flags: &Flags) -> Result<(), String> {
    let Some(own) = command_flags(command) else {
        return Ok(());
    };
    let fits = matches!(command, "deviate" | "registry-add");
    let mut known = own.to_vec();
    known.extend(KIND_FLAGS.iter().filter(|_| fits).flat_map(|(_, f)| *f));
    known.extend(GLOBAL_FLAGS);
    let mut unknown: Vec<&str> = flags.keys().map(String::as_str).collect();
    unknown.retain(|name| !known.contains(name));
    unknown.sort_unstable();
    if let Some(name) = unknown.first() {
        let known: Vec<String> = known.iter().map(|f| format!("--{f}")).collect();
        let known = known.join(", ");
        return Err(format!(
            "unknown flag --{name} for {command} (accepted: {known})"
        ));
    }
    let Ok(kind) = parse_kind(flags) else {
        return Ok(()); // reported by the command
    };
    for (owner, owned) in KIND_FLAGS
        .iter()
        .filter(|(owner, _)| fits && *owner != kind)
    {
        if let Some(flag) = owned.iter().find(|f| flags.contains_key(**f)) {
            return Err(format!(
                "--{flag} is a {} flag; {command} --kind {} does not take it",
                owner.as_str(),
                kind.as_str()
            ));
        }
    }
    Ok(())
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

/// Opens `path` and parses it with `read`; errors name the file.
fn read_path<T>(path: &str, read: impl FnOnce(File) -> std::io::Result<T>) -> Result<T, String> {
    File::open(path)
        .and_then(read)
        .map_err(|e| format!("{path}: {e}"))
}

/// Creates (or truncates) the output file at `path`; errors name the file.
fn create(path: &str) -> Result<File, String> {
    File::create(path).map_err(|e| format!("{path}: {e}"))
}

fn require_rows(path: &str, n: usize) -> Result<(), String> {
    if n == 0 {
        return Err(format!("{path} has no rows"));
    }
    Ok(())
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
    write_transactions(&data, create(out)?).map_err(io_err)?;
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
    write_labeled_table(&data, create(out)?).map_err(io_err)?;
    let name = function.name();
    eprintln!("wrote {out} ({} rows, function {name})", data.len());
    Ok(())
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
    let data = LitsFamily::load(path)?;
    // Created before the mine, so a bad output path fails without mining.
    let out = match flags.get("out") {
        Some(out) => Some((out, create(out)?)),
        None => None,
    };
    let model = miner(minsup).mine(&data);
    eprintln!(
        "{path}: {} frequent itemsets at minsup {minsup}",
        model.len()
    );
    if let Some((out, file)) = out {
        write_lits_model(&model, file).map_err(io_err)?;
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
    match parse_kind(flags)? {
        SnapshotKind::Lits => deviate_of::<LitsFamily>(flags),
        SnapshotKind::Dt => deviate_of::<DtFamily>(flags),
        SnapshotKind::Cluster => deviate_of::<ClusterFamily>(flags),
    }
}

/// Fits a model to each dataset and prints their deviation. Each side is
/// fitted from and measured through one source, so a lits dataset's
/// vertical index is built at most once.
fn deviate_of<F: Fit>(flags: &Flags) -> Result<(), String> {
    let (f, g) = (diff_fn(flags)?, agg_fn(flags)?);
    let (p1, p2) = (req(flags, "d1")?, req(flags, "d2")?);
    let (d1, d2) = load_pair::<F>(p1, p2)?;
    F::comparable(p1, &d1, p2, &d2)?;
    let (s1, s2) = (F::source(&d1), F::source(&d2));
    let (m1, m2) = (F::fit(flags, &s1)?, F::fit(flags, &s2)?);
    let gcr = F::gcr(&m1, &m2);
    let dev = deviate_over_sources::<F>(gcr, &m1, &s1, &m2, &s2, f, g, Parallelism::Global);
    println!("{:.6}", dev.value);
    let (r1, r2) = (F::model_regions(&m1), F::model_regions(&m2));
    eprintln!(
        "GCR: {} regions; models: {r1} and {r2} regions",
        F::n_regions(&dev.gcr)
    );
    Ok(())
}

fn bound(flags: &Flags) -> Result<(), String> {
    let m1 = read_path(req(flags, "m1")?, read_lits_model)?;
    let m2 = read_path(req(flags, "m2")?, read_lits_model)?;
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
    // Bootstrap resampling draws from the pooled rows, so both sides need
    // at least one.
    let (p1, p2) = (req(flags, "d1")?, req(flags, "d2")?);
    let (d1, d2) = load_pair::<LitsFamily>(p1, p2)?;
    require_rows(p1, d1.len())?;
    require_rows(p2, d2.len())?;
    let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
    let pipeline = |a: &TransactionSet, b: &TransactionSet| {
        let (sa, sb) = (CountSource::borrowed(a), CountSource::borrowed(b));
        let (ma, mb) = (m.mine_source(&sa), m.mine_source(&sb));
        let gcr = LitsFamily::gcr(&ma, &mb);
        deviate_over_sources::<LitsFamily>(gcr, &ma, &sa, &mb, &sb, f, g, par).value
    };
    let observed = pipeline(&d1, &d2);
    let q = qualify::qualify(&d1, &d2, observed, reps, seed, par, pipeline);
    let sig = q.significance_percent;
    println!("deviation {observed:.6}  significance {sig:.2}%");
    Ok(())
}

fn tree_params(flags: &Flags, n: usize) -> Result<TreeParams, String> {
    Ok(TreeParams::default()
        .max_depth(opt(flags, "max-depth", 10)?)
        .min_leaf(opt(flags, "min-leaf", (n / 200).max(5))?))
}

fn tree(flags: &Flags) -> Result<(), String> {
    let data = DtFamily::load(req(flags, "data")?)?;
    let t = DecisionTree::fit(&data, tree_params(flags, data.len())?);
    let (leaves, depth, error) = (t.n_leaves(), t.depth(), t.misclassification_rate(&data));
    eprintln!("tree: {leaves} leaves, depth {depth}, training error {error:.4}");
    if flags.contains_key("render") {
        print!("{}", t.render());
    }
    Ok(())
}

/// `--kind`, lits when not given.
fn parse_kind(flags: &Flags) -> Result<SnapshotKind, String> {
    let kind = flags.get("kind").map_or("lits", String::as_str);
    SnapshotKind::parse(kind)
        .ok_or_else(|| format!("--kind must be lits, dt or cluster, got {kind:?}"))
}

/// The snapshot family a `matrix`/`embed` run operates on: the `--kind`
/// flag if given, else the registry's single kind — a mixed registry
/// without `--kind` is ambiguous and errors.
fn registry_kind(reg: &Registry, flags: &Flags) -> Result<SnapshotKind, String> {
    if flags.contains_key("kind") {
        return parse_kind(flags);
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

/// How the CLI reads and fits one model family: the one load-and-fit path
/// of `deviate` and `registry-add`. `fit` reads only the family's own
/// [`KIND_FLAGS`] entry. Datasets are `Send` so that [`load_pair`] can
/// read two at once.
trait Fit: SnapshotFamily<Dataset: Send> {
    /// Reads the dataset at `path`; errors name the file.
    fn load(path: &str) -> Result<Self::Dataset, String>;
    /// Rejects, naming both files, two datasets no deviation can compare.
    fn comparable(_: &str, _: &Self::Dataset, _: &str, _: &Self::Dataset) -> Result<(), String> {
        Ok(())
    }
    /// Fits a model to the dataset behind `source`.
    fn fit(flags: &Flags, source: &Self::Source<'_>) -> Result<Self::Model, String>;
}

impl Fit for LitsFamily {
    fn load(path: &str) -> Result<TransactionSet, String> {
        read_path(path, read_transactions)
    }
    fn fit(flags: &Flags, source: &CountSource<'_>) -> Result<LitsModel, String> {
        Ok(miner(minsup(flags)?).mine_source(source))
    }
}

impl Fit for DtFamily {
    /// Every fitter asserts a non-empty input, so a table without rows is
    /// rejected here.
    fn load(path: &str) -> Result<LabeledTable, String> {
        let data = read_path(path, read_labeled_table)?;
        require_rows(path, data.len())?;
        Ok(data)
    }
    fn comparable(p1: &str, d1: &LabeledTable, p2: &str, d2: &LabeledTable) -> Result<(), String> {
        ClusterFamily::comparable(p1, &d1.table, p2, &d2.table)?;
        if d1.n_classes != d2.n_classes {
            return Err(format!(
                "{p1} has {} classes but {p2} has {}",
                d1.n_classes, d2.n_classes
            ));
        }
        Ok(())
    }
    fn fit(flags: &Flags, data: &&LabeledTable) -> Result<DtModel, String> {
        Ok(DecisionTree::fit(data, tree_params(flags, data.len())?).to_model())
    }
}

impl Fit for ClusterFamily {
    fn load(path: &str) -> Result<Table, String> {
        Ok(DtFamily::load(path)?.table)
    }
    fn comparable(p1: &str, d1: &Table, p2: &str, d2: &Table) -> Result<(), String> {
        if d1.schema() != d2.schema() {
            return Err(format!("{p1} and {p2} have different attribute lists"));
        }
        Ok(())
    }
    fn fit(flags: &Flags, data: &&Table) -> Result<ClusterModel, String> {
        let k: usize = opt(flags, "clusters", 3)?;
        if k == 0 {
            return Err("--clusters must be at least 1".to_string());
        }
        let seed: u64 = opt(flags, "seed", 0)?;
        Ok(KMeans::new(KMeansParams::new(k).seed(seed))
            .fit(data, Parallelism::Global)
            .to_model(data))
    }
}

/// Loads the datasets at `p1` and `p2` concurrently; when both fail, the
/// error names `p1`. Only the reads run side by side: a fit nested in
/// `join`'s spawned side would fan out on top of the other side's threads.
fn load_pair<F: Fit>(p1: &str, p2: &str) -> Result<(F::Dataset, F::Dataset), String> {
    let (d1, d2) = focus_exec::join(Parallelism::Global, || F::load(p1), || F::load(p2));
    Ok((d1?, d2?))
}

/// Opens the registry at `dir`, creating it (flat, or with `layout`) if
/// there is none; an existing one must match `layout` when given.
fn open_registry(dir: &str, layout: Option<RegistryLayout>) -> Result<Registry, String> {
    match layout {
        Some(layout) => Registry::open_or_create_with(dir, layout),
        None => Registry::open_or_create(dir),
    }
    .map_err(io_err)
}

/// Reads and fits the data at `path`, then adds the snapshot to `reg`, the
/// registry opened up front, or to the one created at `dir` now that the
/// snapshot is ready.
fn add<F: Fit>(
    flags: &Flags,
    reg: Option<Registry>,
    dir: &str,
    layout: Option<RegistryLayout>,
    name: &str,
    path: &str,
) -> Result<SnapshotEntry, String> {
    let data = F::load(path)?;
    let model = F::fit(flags, &F::source(&data))?;
    let mut reg = match reg {
        Some(reg) => reg,
        None => open_registry(dir, layout)?,
    };
    reg.add_snapshot::<F>(name, &data, &model)
        .cloned()
        .map_err(io_err)
}

fn registry_add(flags: &Flags) -> Result<(), String> {
    let dir = req(flags, "dir")?;
    let name = req(flags, "name")?;
    let data_path = req(flags, "data")?;
    let kind = parse_kind(flags)?;
    // --shards picks the layout of a *new* registry; an existing one keeps
    // the layout it was created with (a mismatch errors). bin is the one
    // artifact format, so --format is only validated.
    if let Some(f) = flags.get("format") {
        if StorageFormat::parse(f).is_none() {
            return Err(format!(
                "--format {f} is not supported: registries store bin artifacts only"
            ));
        }
    }
    let layout = match flags.get("shards") {
        Some(_) => {
            let layout = RegistryLayout {
                shards: opt(flags, "shards", 0)?,
                ..RegistryLayout::default()
            };
            layout
                .check_shards(std::io::ErrorKind::InvalidInput)
                .map_err(io_err)?;
            Some(layout)
        }
        None => None,
    };
    // An existing registry opens now, so a taken name or a clashing
    // layout fails before the data is read. A new one is created only
    // once the model is fitted, so a failed add leaves no directory.
    let reg = if Registry::exists(dir) {
        let reg = open_registry(dir, layout)?;
        warn_torn(&reg);
        reg.check_new_name(name).map_err(io_err)?;
        Some(reg)
    } else {
        Registry::check_name(name).map_err(io_err)?;
        None
    };
    let entry = match kind {
        SnapshotKind::Lits => add::<LitsFamily>(flags, reg, dir, layout, name, data_path),
        SnapshotKind::Dt => add::<DtFamily>(flags, reg, dir, layout, name, data_path),
        SnapshotKind::Cluster => add::<ClusterFamily>(flags, reg, dir, layout, name, data_path),
    }?;
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
    let top = flags.get("top").map(|_| opt(flags, "top", 0)).transpose()?;
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
    let screen = match top {
        Some(k) => format!("top {k}"),
        None => format!("threshold {:.6}", m.threshold()),
    };
    let (pairs, scanned, pruned) = (m.n_pairs(), m.scanned(), m.pruned());
    println!("pairs {pairs} scanned {scanned} pruned {pruned} {screen}");
    let names = m.names();
    for i in 0..m.len() {
        for j in (i + 1)..m.len() {
            let exact = m
                .exact(i, j)
                .map_or("pruned".into(), |e| format!("exact {e:.6}"));
            println!(
                "{} {} bound {:.6} {exact}",
                names[i],
                names[j],
                m.bound(i, j)
            );
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
            threshold: if F::BOUND_IS_METRIC {
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
