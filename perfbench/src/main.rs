//! Helper binary of the FOCUS CLI benchmark; `perfbench/run.py` drives it.
//!
//! ```text
//! perfbench setup   --workload W --seed N --dir D
//! perfbench replica --workload W --dir D --reg REG [--build 0|1] [--derived 0|1]
//! ```
//!
//! `setup` generates a workload's input files into `D` from the workload
//! seed through `focus-data`'s generators, fingerprints every file with
//! FNV-1a 64, repeats that at least `SETUP_MIN_REPS` times and for at
//! least `SETUP_MIN_SECS`, and prints the per-repetition times and the
//! fingerprints (which must agree across repetitions).
//!
//! `replica` replays, in process, the library calls the CLI makes for the
//! workload — same functions, same order, same parameters — with a timed
//! span around each call into a layer. It prints the stdout every CLI op
//! must produce, the δ* ≥ δ checks, the deterministic work counts, and the
//! per-layer self times. `--derived 1` adds probes that are not part of the
//! CLI's call sequence (mining at `max_len` 1 and 2, a standalone measure
//! extension, registry loads and the δ* sweep); they run after the replay
//! and are excluded from its wall time. Only the generic API is called:
//! `ModelFamily` methods, `deviate_over_sources`, the snapshot-generic
//! registry API and `Apriori::mine` with the default counting backend.

use focus_core::data::{LabeledTable, TransactionSet};
use focus_core::deviation::deviate_over_sources;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::{DtFamily, LitsFamily, ModelFamily, Side};
use focus_core::model::LitsModel;
use focus_core::qualify::qualify_transactions;
use focus_core::source::CountSource;
use focus_core::vertical::VerticalIndex;
use focus_data::io::{
    read_labeled_table, read_transactions, write_labeled_table, write_transactions,
};
use focus_data::{AssocGen, AssocGenParams, ClassifyFn, ClassifyGen};
use focus_exec::{derive_seed, global_threads, Parallelism};
use focus_mining::{Apriori, AprioriParams};
use focus_registry::{
    DeviationMatrix, MatrixParams, Registry, RegistryLayout, SnapshotKind, StorageFormat,
};
use focus_tree::{DecisionTree, TreeParams};
use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// Mining threshold of every lits op in every workload.
const MINSUP: f64 = 0.005;
/// Bootstrap replicates and seed of the `qualify` op.
const QUALIFY_REPS: usize = 9;
const QUALIFY_SEED: u64 = 7;
/// Snapshot counts of the registry workload.
const LITS_SNAPSHOTS: usize = 10;
const DT_SNAPSHOTS: usize = 6;
/// Layout of the registry the `registry-add` ops create.
const REGISTRY_LAYOUT: RegistryLayout = RegistryLayout {
    shards: 4,
    format: StorageFormat::Binary,
};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    Deviate,
    Qualify,
    RegistryExplore,
}

impl Workload {
    fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "deviate-100k" => Ok(Workload::Deviate),
            "qualify-10k" => Ok(Workload::Qualify),
            "registry-explore" => Ok(Workload::RegistryExplore),
            other => Err(format!("unknown workload {other:?}")),
        }
    }
}

/// One generated input file.
enum Input {
    Assoc {
        file: String,
        rows: usize,
        pattern_seed: u64,
        seed: u64,
    },
    Class {
        file: String,
        rows: usize,
        function: ClassifyFn,
        seed: u64,
    },
}

impl Input {
    fn file(&self) -> &str {
        match self {
            Input::Assoc { file, .. } | Input::Class { file, .. } => file,
        }
    }

    fn write(&self, dir: &Path) -> io::Result<()> {
        let mut w = BufWriter::new(File::create(dir.join(self.file()))?);
        match self {
            Input::Assoc {
                rows,
                pattern_seed,
                seed,
                ..
            } => {
                // The CLI's `gen-assoc` defaults: 4000 patterns of mean length 4.
                let gen = AssocGen::new(AssocGenParams::paper(4000, 4.0), *pattern_seed);
                write_transactions(&gen.generate(*rows, *seed), &mut w)?;
            }
            Input::Class {
                rows,
                function,
                seed,
                ..
            } => {
                let data = ClassifyGen::new(*function)
                    .noise(0.05)
                    .generate(*rows, *seed);
                write_labeled_table(&data, &mut w)?;
            }
        }
        w.flush()
    }
}

fn lits_name(i: usize) -> String {
    format!("lits-{i:02}")
}

fn dt_name(j: usize) -> String {
    format!("dt-{j}")
}

/// The input files of a workload, a pure function of the workload seed.
fn inputs(w: Workload, seed: u64) -> Vec<Input> {
    let pair = |rows: usize| {
        (1..=2u64)
            .map(|k| Input::Assoc {
                file: format!("d{k}.txt"),
                rows,
                pattern_seed: 1,
                seed: derive_seed(seed, k),
            })
            .collect()
    };
    match w {
        Workload::Deviate => pair(100_000),
        Workload::Qualify => pair(10_000),
        Workload::RegistryExplore => {
            // Two alternating pattern families, so screening has both
            // near and far pairs to tell apart.
            let lits = (0..LITS_SNAPSHOTS).map(|i| Input::Assoc {
                file: format!("{}.txt", lits_name(i)),
                rows: 20_000,
                pattern_seed: 1 + (i % 2) as u64,
                seed: derive_seed(seed, 100 + i as u64),
            });
            let dt = (0..DT_SNAPSHOTS).map(|j| Input::Class {
                file: format!("{}.tbl", dt_name(j)),
                rows: 50_000,
                function: if j % 2 == 0 {
                    ClassifyFn::F2
                } else {
                    ClassifyFn::F3
                },
                seed: derive_seed(seed, 200 + j as u64),
            });
            lits.chain(dt).collect()
        }
    }
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Set-up repeats until both minimums are met (at most `SETUP_MAX_REPS`
/// times), so the median of a short set-up is taken over many samples.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MIN_SECS: f64 = 2.0;
const SETUP_MAX_REPS: usize = 50;

fn setup(w: Workload, seed: u64, dir: &Path) -> Result<String, String> {
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let files = inputs(w, seed);
    let mut secs: Vec<f64> = Vec::new();
    let mut first: Option<BTreeMap<String, String>> = None;
    while secs.len() < SETUP_MIN_REPS
        || (secs.iter().sum::<f64>() < SETUP_MIN_SECS && secs.len() < SETUP_MAX_REPS)
    {
        let t = Instant::now();
        let mut prints = BTreeMap::new();
        for f in &files {
            f.write(dir)
                .map_err(|e| format!("writing {}: {e}", f.file()))?;
            let bytes = std::fs::read(dir.join(f.file())).map_err(|e| e.to_string())?;
            prints.insert(f.file().to_string(), format!("{:016x}", fnv1a64(&bytes)));
        }
        secs.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(prints),
            Some(p) if *p != prints => {
                return Err("setup is not deterministic: fingerprints differ".into())
            }
            Some(_) => {}
        }
    }
    let prints = first.expect("at least one repetition");
    Ok(format!(
        "{{\"secs\": {}, \"fingerprints\": {}}}",
        json_list(&secs),
        json_map(prints.iter().map(|(k, v)| (k.as_str(), json_str(v))))
    ))
}

// ---------------------------------------------------------------------------
// The in-process replica
// ---------------------------------------------------------------------------

/// Timed spans around the calls into each layer, named after the layer's
/// self-time metric. Spans never nest, so a span's self time is its
/// duration.
#[derive(Default)]
struct Replay {
    spans: Vec<(&'static str, f64)>,
    /// Expected stdout of each kind of CLI op.
    outputs: BTreeMap<String, String>,
    /// Named δ* ≥ δ checks.
    checks: BTreeMap<String, bool>,
    /// Deterministic work counts.
    counts: BTreeMap<&'static str, u64>,
    /// Timings that are not span self times: per-call medians and derived
    /// probes.
    timings: BTreeMap<&'static str, f64>,
}

impl Replay {
    fn span<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.spans.push((layer, t.elapsed().as_secs_f64()));
        r
    }

    fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    fn self_time(&self, layer: &str) -> f64 {
        self.durations(layer).iter().fold(0.0, |a, b| a + b)
    }

    fn durations(&self, layer: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|(l, _)| *l == layer)
            .map(|(_, s)| *s)
            .collect()
    }

    fn parse_transactions(&mut self, path: &Path) -> io::Result<TransactionSet> {
        self.count("io.bytes", std::fs::metadata(path)?.len());
        self.span("io.parse_s", || read_transactions(File::open(path)?))
    }

    fn parse_table(&mut self, path: &Path) -> io::Result<LabeledTable> {
        self.count("io.bytes", std::fs::metadata(path)?.len());
        self.span("io.parse_s", || read_labeled_table(File::open(path)?))
    }
}

/// The miner exactly as the CLI's `miner()` builds it, without a backend
/// override: the default counting path.
fn miner(max_len: usize) -> Apriori {
    Apriori::new(
        AprioriParams::with_minsup(MINSUP)
            .max_len(max_len)
            .min_count_floor(2),
    )
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Frequent itemsets per level of one mined model, and the level-2
/// candidate count C(f1, 2) Apriori generates from them.
fn model_counts(r: &mut Replay, m: &LitsModel) {
    let by_len =
        |pred: fn(usize) -> bool| m.itemsets().iter().filter(|s| pred(s.len())).count() as u64;
    let f1 = by_len(|l| l == 1);
    r.count("mine.frequent_l1", f1);
    r.count("mine.candidates_l2", f1 * f1.saturating_sub(1) / 2);
    r.count("mine.frequent_l2", by_len(|l| l == 2));
    r.count("mine.frequent_l3p", by_len(|l| l >= 3));
}

/// GCR regions absent from a side's own model: the itemsets measure
/// extension has to count.
fn missing_regions(gcr: &[focus_core::region::Itemset], m1: &LitsModel, m2: &LitsModel) -> u64 {
    [m1, m2]
        .iter()
        .map(|m| gcr.iter().filter(|s| m.support_of(s).is_none()).count() as u64)
        .sum()
}

fn index_counts(r: &mut Replay, sources: &[&CountSource<'_>]) {
    for s in sources {
        if s.index_built() {
            r.count("extend.index_built", 1);
            r.count(
                "extend.index_bytes",
                VerticalIndex::estimate_bytes_for(s.n_items(), s.len()) as u64,
            );
        }
    }
}

/// Mines both datasets and computes δ(f_a, g_sum) the way the CLI's
/// `deviate` (and the observed statistic of `qualify`) does, recording
/// the counts of the pair.
fn traced_deviation(
    r: &mut Replay,
    d1: &TransactionSet,
    d2: &TransactionSet,
) -> (LitsModel, LitsModel, f64) {
    let m = miner(10);
    let m1 = r.span("mine.s", || m.mine(d1));
    let m2 = r.span("mine.s", || m.mine(d2));
    let gcr = r.span("gcr.s", || LitsFamily::gcr(&m1, &m2));
    let (s1, s2) = (LitsFamily::source(d1), LitsFamily::source(d2));
    let dev = r.span("deviate.s", || {
        deviate_over_sources::<LitsFamily>(
            gcr,
            &m1,
            &s1,
            &m2,
            &s2,
            DiffFn::Absolute,
            AggFn::Sum,
            Parallelism::Global,
        )
    });
    r.count("gcr.regions", dev.gcr.len() as u64);
    r.count("extend.missing", missing_regions(&dev.gcr, &m1, &m2));
    index_counts(r, &[&s1, &s2]);
    model_counts(r, &m1);
    (m1, m2, dev.value)
}

/// Derived probes of the miner levels on one dataset: mining at
/// `max_len` 1, 2 and 10 back to back, differenced.
fn level_probes(r: &mut Replay, data: &TransactionSet) {
    let time = |max_len| {
        let t = Instant::now();
        std::hint::black_box(miner(max_len).mine(data));
        t.elapsed().as_secs_f64()
    };
    let l1 = time(1);
    let l2 = time(2);
    let all = time(10);
    r.timings.insert("mine.level1_s", l1);
    r.timings.insert("mine.level2_s", (l2 - l1).max(0.0));
    r.timings.insert("mine.level3p_s", (all - l2).max(0.0));
}

/// Derived probe of measure extension alone, over fresh sources so the
/// index cache starts cold as it does inside the replay.
fn extend_probe(
    r: &mut Replay,
    m1: &LitsModel,
    d1: &TransactionSet,
    m2: &LitsModel,
    d2: &TransactionSet,
) {
    let gcr = LitsFamily::gcr(m1, m2);
    let (s1, s2) = (LitsFamily::source(d1), LitsFamily::source(d2));
    let t = Instant::now();
    let a = LitsFamily::measures(&gcr, m1, m2, &s1, Side::Left, Parallelism::Global);
    let b = LitsFamily::measures(&gcr, m1, m2, &s2, Side::Right, Parallelism::Global);
    std::hint::black_box((a, b));
    r.timings.insert("extend.s", t.elapsed().as_secs_f64());
}

fn parse_pair(r: &mut Replay, dir: &Path) -> io::Result<(TransactionSet, TransactionSet)> {
    Ok((
        r.parse_transactions(&dir.join("d1.txt"))?,
        r.parse_transactions(&dir.join("d2.txt"))?,
    ))
}

fn replay_deviate(r: &mut Replay, dir: &Path, derived: bool) -> Result<f64, String> {
    let t = Instant::now();
    let (d1, d2) = parse_pair(r, dir).map_err(|e| e.to_string())?;
    let (m1, m2, value) = traced_deviation(r, &d1, &d2);
    r.outputs.insert("deviate".into(), format!("{value:.6}\n"));
    let wall = t.elapsed().as_secs_f64();
    let bound = LitsFamily::upper_bound(&m1, &m2, AggFn::Sum).expect("lits has a bound");
    r.checks
        .insert("bound_dominates_deviate".into(), bound >= value);
    r.outputs.insert("bound".into(), format!("{bound:.6}\n"));
    if derived {
        level_probes(r, &d1);
        extend_probe(r, &m1, &d1, &m2, &d2);
    }
    Ok(wall)
}

fn replay_qualify(r: &mut Replay, dir: &Path, derived: bool) -> Result<f64, String> {
    let t = Instant::now();
    let (d1, d2) = parse_pair(r, dir).map_err(|e| e.to_string())?;
    let (m1, m2, observed) = traced_deviation(r, &d1, &d2);
    let rep_s = Mutex::new(Vec::new());
    let q = r.span("qualify.s", || {
        qualify_transactions(&d1, &d2, observed, QUALIFY_REPS, QUALIFY_SEED, |a, b| {
            let t = Instant::now();
            let m = miner(10);
            let (ma, mb) = (m.mine(a), m.mine(b));
            let v = deviate_over_sources::<LitsFamily>(
                LitsFamily::gcr(&ma, &mb),
                &ma,
                &LitsFamily::source(a),
                &mb,
                &LitsFamily::source(b),
                DiffFn::Absolute,
                AggFn::Sum,
                Parallelism::Global,
            )
            .value;
            rep_s
                .lock()
                .expect("no replicate panicked holding the lock")
                .push(t.elapsed().as_secs_f64());
            v
        })
    });
    r.outputs.insert(
        "qualify".into(),
        format!(
            "deviation {:.6}  significance {:.2}%\n",
            observed, q.significance_percent
        ),
    );
    let wall = t.elapsed().as_secs_f64();
    let reps = rep_s.into_inner().expect("replicates finished");
    let qualify_wall = r.self_time("qualify.s");
    r.timings.insert("qualify.rep_s", median(&reps));
    r.timings.insert(
        "qualify.rep_max_s",
        reps.iter().copied().fold(0.0, f64::max),
    );
    r.timings.insert(
        "qualify.fanout_eff",
        reps.iter().sum::<f64>() / (qualify_wall * global_threads() as f64),
    );
    if derived {
        level_probes(r, &d1);
        extend_probe(r, &m1, &d1, &m2, &d2);
    }
    Ok(wall)
}

/// The `registry-add` sequence: every lits snapshot (`--format bin
/// --shards 4 --minsup 0.005`), then every dt snapshot (`--kind dt`), each
/// opening the registry afresh as a CLI process does.
fn replay_build(r: &mut Replay, dir: &Path, reg: &Path) -> Result<(), String> {
    let e = |e: io::Error| e.to_string();
    for i in 0..LITS_SNAPSHOTS {
        let name = lits_name(i);
        let mut registry = r
            .span("registry.open_s", || {
                Registry::open_or_create_with(reg, REGISTRY_LAYOUT)
            })
            .map_err(e)?;
        let data = r
            .parse_transactions(&dir.join(format!("{name}.txt")))
            .map_err(e)?;
        let model = r.span("mine.s", || miner(10).mine(&data));
        if i == 0 {
            model_counts(r, &model);
        }
        r.span("registry.persist_s", || {
            registry
                .add_snapshot::<LitsFamily>(&name, &data, &model)
                .map(|_| ())
        })
        .map_err(e)?;
    }
    for j in 0..DT_SNAPSHOTS {
        let name = dt_name(j);
        let mut registry = r
            .span("registry.open_s", || Registry::open(reg))
            .map_err(e)?;
        let data = r.parse_table(&dir.join(format!("{name}.tbl"))).map_err(e)?;
        let (model, leaves) = r.span("tree.fit_s", || {
            let params = TreeParams::default()
                .max_depth(10)
                .min_leaf((data.len() / 200).max(5));
            let tree = DecisionTree::fit(&data, params);
            (tree.to_model(), tree.n_leaves())
        });
        r.count("tree.leaves", leaves as u64);
        r.span("registry.persist_s", || {
            registry
                .add_snapshot::<DtFamily>(&name, &data, &model)
                .map(|_| ())
        })
        .map_err(e)?;
    }
    r.count("registry.bytes_written", dir_bytes(reg).map_err(e)?);
    Ok(())
}

fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// `matrix` stdout, formatted exactly as the CLI prints it.
fn matrix_text(m: &DeviationMatrix, top: Option<usize>) -> String {
    let mut s = match top {
        Some(k) => format!(
            "pairs {} scanned {} pruned {} top {}\n",
            m.n_pairs(),
            m.scanned(),
            m.pruned(),
            k
        ),
        None => format!(
            "pairs {} scanned {} pruned {} threshold {:.6}\n",
            m.n_pairs(),
            m.scanned(),
            m.pruned(),
            m.threshold()
        ),
    };
    let names = m.names();
    for i in 0..m.len() {
        for j in (i + 1)..m.len() {
            s += &match (m.has_bounds(), m.exact(i, j)) {
                (true, Some(e)) => format!(
                    "{} {} bound {:.6} exact {:.6}\n",
                    names[i],
                    names[j],
                    m.bound(i, j),
                    e
                ),
                (true, None) => {
                    format!(
                        "{} {} bound {:.6} pruned\n",
                        names[i],
                        names[j],
                        m.bound(i, j)
                    )
                }
                (false, Some(e)) => format!("{} {} exact {:.6}\n", names[i], names[j], e),
                (false, None) => String::from("unscreened matrix with a pruned cell\n"),
            };
        }
    }
    s
}

fn matrix_counts(r: &mut Replay, m: &DeviationMatrix, query: &str) {
    r.count("matrix.pairs", m.n_pairs() as u64);
    r.count("matrix.scanned", m.scanned() as u64);
    r.count("matrix.pruned", m.pruned() as u64);
    // δ* bounds δ(f_a, g) only; scaled-difference cells may exceed it.
    if m.has_bounds() && matches!(m.diff(), DiffFn::Absolute) {
        let dominated = (0..m.len())
            .flat_map(|i| ((i + 1)..m.len()).map(move |j| (i, j)))
            .all(|(i, j)| m.exact(i, j).is_none_or(|e| m.bound(i, j) >= e));
        r.checks
            .insert(format!("{query}_bound_dominates_exact"), dominated);
    }
}

/// The query mix, in cycle order: `matrix --kind lits --top 10`, `matrix
/// --kind lits --f fs`, `matrix --kind dt --top 5`, `embed --kind lits`.
fn replay_queries(r: &mut Replay, reg: &Path) -> Result<(), String> {
    let e = |e: io::Error| e.to_string();
    let screened = [
        (
            "matrix-lits-top",
            SnapshotKind::Lits,
            Some(10),
            DiffFn::Absolute,
        ),
        ("matrix-lits-fs", SnapshotKind::Lits, None, DiffFn::Scaled),
        ("matrix-dt-top", SnapshotKind::Dt, Some(5), DiffFn::Absolute),
    ];
    for (query, kind, top, diff) in screened {
        let registry = r
            .span("registry.open_s", || Registry::open(reg))
            .map_err(e)?;
        let params = MatrixParams {
            diff,
            top,
            ..MatrixParams::default()
        };
        let m = r
            .span("matrix.s", || match kind {
                SnapshotKind::Dt => registry.matrix_of::<DtFamily>(&params),
                _ => registry.matrix_of::<LitsFamily>(&params),
            })
            .map_err(e)?;
        matrix_counts(r, &m, query);
        r.outputs.insert(query.into(), matrix_text(&m, top));
    }
    // `embed` screens at +∞ because the lits δ* is a pseudo-metric: the
    // embedding runs straight off the bound grid.
    let registry = r
        .span("registry.open_s", || Registry::open(reg))
        .map_err(e)?;
    let params = MatrixParams {
        threshold: f64::INFINITY,
        ..MatrixParams::default()
    };
    let m = r
        .span("matrix.s", || registry.matrix_of::<LitsFamily>(&params))
        .map_err(e)?;
    matrix_counts(r, &m, "embed-lits");
    let (coords, stress) = r.span("embed.s", || -> Result<_, String> {
        let coords = m.embed(2).map_err(|e| e.to_string())?;
        let stress = m.stress(&coords).map_err(|e| e.to_string())?;
        Ok((coords, stress))
    })?;
    let mut text = String::new();
    for (name, c) in m.names().iter().zip(&coords) {
        let cs: Vec<String> = c.iter().map(|x| format!("{x:.6}")).collect();
        text += &format!("{} {}\n", name, cs.join(" "));
    }
    text += &format!("stress {stress:.6}\n");
    r.outputs.insert("embed-lits".into(), text);
    Ok(())
}

fn timed<T>(f: impl FnOnce() -> io::Result<T>) -> io::Result<(T, f64)> {
    let t = Instant::now();
    let v = f()?;
    Ok((v, t.elapsed().as_secs_f64()))
}

/// Derived probes of the registry's read layers and of the δ* sweep.
fn registry_probes(r: &mut Replay, reg: &Path) -> io::Result<()> {
    let registry = Registry::open(reg)?;
    let (mut model_s, mut source_s, mut dataset_s) = (0.0, 0.0, 0.0);
    let mut lits = Vec::new();
    let mut dts = Vec::new();
    for entry in registry.entries_of(SnapshotKind::Lits) {
        let (model, s) = timed(|| registry.load_snapshot_model::<LitsFamily>(&entry.name))?;
        lits.push(model);
        model_s += s;
        source_s += timed(|| registry.load_snapshot_source(&entry.name))?.1;
    }
    for entry in registry.entries_of(SnapshotKind::Dt) {
        let (model, s) = timed(|| registry.load_snapshot_model::<DtFamily>(&entry.name))?;
        dts.push(model);
        model_s += s;
        dataset_s += timed(|| registry.load_snapshot_dataset::<DtFamily>(&entry.name))?.1;
    }
    let t = Instant::now();
    let mut sum = 0.0;
    for i in 0..lits.len() {
        for j in (i + 1)..lits.len() {
            sum += LitsFamily::upper_bound(&lits[i], &lits[j], AggFn::Sum).unwrap_or(0.0);
        }
    }
    for i in 0..dts.len() {
        for j in (i + 1)..dts.len() {
            sum += DtFamily::upper_bound(&dts[i], &dts[j], AggFn::Sum).unwrap_or(0.0);
        }
    }
    std::hint::black_box(sum);
    r.timings
        .insert("matrix.bound_s", t.elapsed().as_secs_f64());
    r.timings.insert("registry.load_model_s", model_s);
    r.timings.insert("registry.load_source_s", source_s);
    r.timings.insert("registry.load_dataset_s", dataset_s);
    Ok(())
}

fn replay_registry(
    r: &mut Replay,
    dir: &Path,
    reg: &Path,
    build: bool,
    derived: bool,
) -> Result<f64, String> {
    let t = Instant::now();
    if build {
        replay_build(r, dir, reg)?;
    }
    replay_queries(r, reg)?;
    let wall = t.elapsed().as_secs_f64();
    if derived {
        let first = dir.join(format!("{}.txt", lits_name(0)));
        let data = read_transactions(File::open(first).map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        level_probes(r, &data);
        registry_probes(r, reg).map_err(|e| e.to_string())?;
    }
    Ok(wall)
}

fn replica(
    w: Workload,
    dir: &Path,
    reg: &Path,
    build: bool,
    derived: bool,
) -> Result<String, String> {
    let mut r = Replay::default();
    let wall = match w {
        Workload::Deviate => replay_deviate(&mut r, dir, derived)?,
        Workload::Qualify => replay_qualify(&mut r, dir, derived)?,
        Workload::RegistryExplore => replay_registry(&mut r, dir, reg, build, derived)?,
    };
    // Span names are the metric names of their layers' self times.
    let mut timings = r.timings.clone();
    for (layer, _) in &r.spans {
        timings.insert(layer, r.self_time(layer));
    }
    // mine.s is per call, not a total.
    timings.insert("mine.s", median(&r.durations("mine.s")));
    let covered: f64 = r.spans.iter().map(|(_, s)| s).sum();
    timings.insert("trace.coverage", covered / wall);
    Ok(format!(
        "{{\"wall\": {}, \"threads\": {}, \"outputs\": {}, \"checks\": {}, \"counts\": {}, \"timings\": {}}}",
        json_num(wall),
        global_threads(),
        json_map(r.outputs.iter().map(|(k, v)| (k.as_str(), json_str(v)))),
        json_map(r.checks.iter().map(|(k, v)| (k.as_str(), v.to_string()))),
        json_map(r.counts.iter().map(|(k, v)| (*k, v.to_string()))),
        json_map(timings.iter().map(|(k, v)| (*k, json_num(*v)))),
    ))
}

// ---------------------------------------------------------------------------
// Output and arguments
// ---------------------------------------------------------------------------

fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:e}")
    } else {
        "null".into()
    }
}

fn json_list(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| json_num(*x)).collect();
    format!("[{}]", items.join(", "))
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out += "\\\"",
            '\\' => out += "\\\\",
            '\n' => out += "\\n",
            c if (c as u32) < 0x20 => out += &format!("\\u{:04x}", c as u32),
            c => out.push(c),
        }
    }
    out + "\""
}

fn json_map<'a>(entries: impl Iterator<Item = (&'a str, String)>) -> String {
    let items: Vec<String> = entries
        .map(|(k, v)| format!("{}: {}", json_str(k), v))
        .collect();
    format!("{{{}}}", items.join(", "))
}

fn run() -> Result<String, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = args.split_first().ok_or("missing command")?;
    let mut flags = BTreeMap::new();
    for pair in rest.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => {
                flags.insert(k[2..].to_string(), v.clone());
            }
            _ => return Err(format!("malformed arguments {rest:?}")),
        }
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let flag = |name: &str| flags.get(name).is_some_and(|v| v == "1");
    let w = Workload::parse(&get("workload")?)?;
    let dir = PathBuf::from(get("dir")?);
    match command.as_str() {
        "setup" => {
            let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
            setup(w, seed, &dir)
        }
        "replica" => {
            let reg = flags
                .get("reg")
                .map_or_else(|| dir.join("reg"), PathBuf::from);
            replica(w, &dir, &reg, flag("build"), flag("derived"))
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn main() -> std::process::ExitCode {
    match run() {
        Ok(json) => {
            println!("{json}");
            std::process::ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::ExitCode::FAILURE
        }
    }
}
