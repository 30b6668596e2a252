//! A directory of named dataset snapshots and their mined models — any
//! model family.
//!
//! On disk a registry is a directory holding, per snapshot, a dataset file
//! and a model file (see [`SnapshotFamily`]) plus a line-oriented index:
//!
//! ```text
//! registry.manifest        line-oriented index (see below)
//! registry.layout          optional root index (see crate::shard)
//! <name>.txns / <name>.lits    lits snapshots  (focus_data::io / persist)
//! <name>.tbl  / <name>.dt      dt snapshots
//! <name>.rows / <name>.clu     cluster snapshots
//! shard-NNN/...                sharded layouts only
//! ```
//!
//! with the manifest
//!
//! ```text
//! #focus-registry v2
//! snapshot <name> kind <lits|dt|cluster> minsup <ms|-> n <rows> regions <count>
//! ```
//!
//! one line per snapshot, in insertion order. The manifest is append-only:
//! adding a snapshot writes the two artifact files, then appends its line,
//! so a torn write can at worst lose the line for artifacts that already
//! exist — never index artifacts that don't. Accordingly, a final manifest
//! line without its terminating newline is treated as that lost line: it
//! is ignored on open (whether or not it happens to parse — the writer
//! always terminates and fsyncs, so an unterminated tail is suspect by
//! construction) and surfaced through [`Registry::torn_lines`]; malformed
//! *interior* lines still fail the open. Version-1 manifests (the
//! lits-only format of earlier releases, `snapshot <name> minsup <ms> n
//! <txns> itemsets <count>`) still open — every entry reads as a lits
//! snapshot — and are upgraded in place on the first write.
//!
//! ## Layouts and formats
//!
//! [`RegistryLayout`] — fixed at creation, recorded in `registry.layout`,
//! absent for the classic flat/text layout — selects hash-sharded
//! directories (`shard-NNN/`, each with its own append-only manifest
//! carrying global `seq` numbers so insertion order survives the split)
//! and/or the binary columnar artifact format of [`crate::binfmt`]
//! (artifact files gain a `.bin` suffix and load zero-copy through
//! [`crate::binfmt::MappedBytes`]).
//!
//! ## Concurrency contract
//!
//! Artifact writes use unique temp names, so concurrent `add_snapshot`
//! calls from different handles or processes cannot clobber each other's
//! in-flight files. The *manifest append* however assumes a **single
//! writer per registry** (per shard, for sharded layouts): two writers
//! appending concurrently could interleave bytes within a line or mint
//! duplicate `seq` numbers. Readers are always safe alongside one writer.

use crate::binfmt::MappedBytes;
use crate::family::{SnapshotFamily, SnapshotKind};
use crate::matrix::{DeviationMatrix, MatrixParams};
use crate::shard::{RegistryLayout, StorageFormat, LAYOUT_FILE};
use focus_core::data::TransactionSet;
use focus_core::family::LitsFamily;
use focus_core::source::CountSource;
use focus_mining::{Apriori, AprioriParams};
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const MANIFEST: &str = "registry.manifest";
const HEADER_V2: &str = "#focus-registry v2";
const HEADER_V1: &str = "#focus-registry v1";
const HEADER_SHARD: &str = "#focus-registry-shard v1";

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Fsyncs a directory so a just-renamed or just-created entry inside it
/// survives a crash — a rename is only durable once the *directory* is on
/// disk, not just the file. No-op on platforms where directories cannot be
/// opened for syncing.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

/// Per-process counter making temp names unique within one process; the
/// pid in the name makes them unique across processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

/// Durably writes one file: temp file in the same directory, `write`
/// callback, `sync_all` (flush + fsync the data), atomic rename over the
/// destination, then directory fsync so the rename itself survives a
/// crash. A crash at any point leaves either the old file or the new one,
/// never a torn or vanished entry.
///
/// The temp name is unique (pid + per-process counter) and created with
/// `create_new`, so concurrent writers — even other processes targeting
/// the same destination — can never open each other's temp file or
/// rename a half-written one into place; last completed rename wins. A
/// stale temp file left by a crashed process is never reused or
/// clobbered. On error the temp file is removed best-effort.
pub(crate) fn persist_file(
    path: &Path,
    write: impl FnOnce(&mut File) -> std::io::Result<()>,
) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(
        ".tmp.{}.{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let tmp = PathBuf::from(tmp);
    let mut f = OpenOptions::new().write(true).create_new(true).open(&tmp)?;
    let written = write(&mut f).and_then(|()| f.sync_all());
    drop(f);
    let renamed = written.and_then(|()| std::fs::rename(&tmp, path));
    if let Err(e) = renamed {
        std::fs::remove_file(&tmp).ok();
        return Err(e);
    }
    sync_dir(path.parent().unwrap_or_else(|| Path::new(".")))
}

/// Makes a manifest safe to append to: if a crashed append left an
/// unterminated final line, rewrites the file (durably) without it. A
/// no-op — one metadata read plus one byte — on the healthy path.
fn repair_manifest_tail(path: &Path) -> std::io::Result<()> {
    use std::io::{Read, Seek, SeekFrom};
    let mut f = File::open(path)?;
    if f.metadata()?.len() == 0 {
        return Ok(());
    }
    f.seek(SeekFrom::End(-1))?;
    let mut last = [0u8; 1];
    f.read_exact(&mut last)?;
    drop(f);
    if last[0] == b'\n' {
        return Ok(());
    }
    let (text, _) = read_manifest_text(path)?;
    persist_file(path, |f| f.write_all(text.as_bytes()))
}

/// Reads a manifest file, dropping an unterminated final line (a torn
/// tail from a crashed append — see the module docs). Returns the
/// surviving text and how many lines were dropped (0 or 1).
fn read_manifest_text(path: &Path) -> std::io::Result<(String, usize)> {
    let mut text = std::fs::read_to_string(path)?;
    if text.is_empty() || text.ends_with('\n') {
        return Ok((text, 0));
    }
    match text.rfind('\n') {
        Some(pos) => text.truncate(pos + 1),
        // The whole file is one unterminated line: even the header is
        // torn, so nothing survives (and the header check will fail).
        None => text.clear(),
    }
    Ok((text, 1))
}

/// One manifest entry: a named snapshot and its summary statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// Snapshot name (file-name safe: `[A-Za-z0-9._-]`, no leading dot).
    pub name: String,
    /// The model family the snapshot belongs to.
    pub kind: SnapshotKind,
    /// Minimum support the model was mined at (`Some` for lits snapshots).
    pub minsup: Option<f64>,
    /// Number of rows/transactions in the dataset.
    pub n_rows: u64,
    /// Number of structural regions in the model (itemsets, leaves,
    /// clusters).
    pub n_regions: u64,
}

impl SnapshotEntry {
    fn manifest_line(&self) -> String {
        let ms = match self.minsup {
            Some(ms) => ms.to_string(),
            None => "-".to_string(),
        };
        format!(
            "snapshot {} kind {} minsup {} n {} regions {}",
            self.name, self.kind, ms, self.n_rows, self.n_regions
        )
    }
}

/// A collection of persisted snapshots rooted at a directory.
#[derive(Debug)]
pub struct Registry {
    root: PathBuf,
    entries: Vec<SnapshotEntry>,
    /// Snapshot names, for O(1) duplicate/membership checks at scale.
    names_idx: HashSet<String>,
    /// Manifest format found on open; v1 manifests upgrade on first write.
    version: u8,
    /// Directory layout and artifact format (fixed at creation).
    layout: RegistryLayout,
    /// Torn trailing manifest lines ignored on open (at most one per
    /// manifest file — see the module docs).
    torn: usize,
    /// Next global sequence number for sharded manifest lines.
    next_seq: u64,
}

/// A snapshot name must be usable verbatim as a file stem.
fn check_name(name: &str) -> std::io::Result<()> {
    let ok = !name.is_empty()
        && !name.starts_with('.')
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'));
    if ok {
        Ok(())
    } else {
        Err(bad(&format!(
            "invalid snapshot name {name:?} (want [A-Za-z0-9._-]+, no leading dot)"
        )))
    }
}

fn parse_entry(line: &str, version: u8) -> std::io::Result<SnapshotEntry> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let entry = if version == 1 {
        // snapshot <name> minsup <ms> n <txns> itemsets <count>
        if fields.len() != 8
            || fields[0] != "snapshot"
            || fields[2] != "minsup"
            || fields[4] != "n"
            || fields[6] != "itemsets"
        {
            return Err(bad(&format!("malformed v1 manifest line {line:?}")));
        }
        SnapshotEntry {
            name: fields[1].to_string(),
            kind: SnapshotKind::Lits,
            minsup: Some(
                fields[3]
                    .parse()
                    .map_err(|e| bad(&format!("bad minsup in manifest: {e}")))?,
            ),
            n_rows: fields[5]
                .parse()
                .map_err(|e| bad(&format!("bad n in manifest: {e}")))?,
            n_regions: fields[7]
                .parse()
                .map_err(|e| bad(&format!("bad itemset count in manifest: {e}")))?,
        }
    } else {
        // snapshot <name> kind <kind> minsup <ms|-> n <rows> regions <count>
        if fields.len() != 10
            || fields[0] != "snapshot"
            || fields[2] != "kind"
            || fields[4] != "minsup"
            || fields[6] != "n"
            || fields[8] != "regions"
        {
            return Err(bad(&format!("malformed manifest line {line:?}")));
        }
        let kind = SnapshotKind::parse(fields[3])
            .ok_or_else(|| bad(&format!("unknown snapshot kind {:?}", fields[3])))?;
        let minsup = if fields[5] == "-" {
            None
        } else {
            Some(
                fields[5]
                    .parse()
                    .map_err(|e| bad(&format!("bad minsup in manifest: {e}")))?,
            )
        };
        SnapshotEntry {
            name: fields[1].to_string(),
            kind,
            minsup,
            n_rows: fields[7]
                .parse()
                .map_err(|e| bad(&format!("bad n in manifest: {e}")))?,
            n_regions: fields[9]
                .parse()
                .map_err(|e| bad(&format!("bad region count in manifest: {e}")))?,
        }
    };
    check_name(&entry.name)?;
    Ok(entry)
}

/// Parses a sharded manifest line: a v2 entry line plus ` seq <n>`.
fn parse_shard_entry(line: &str) -> std::io::Result<(u64, SnapshotEntry)> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    if fields.len() != 12 || fields[10] != "seq" {
        return Err(bad(&format!("malformed shard manifest line {line:?}")));
    }
    let seq: u64 = fields[11]
        .parse()
        .map_err(|e| bad(&format!("bad seq in manifest: {e}")))?;
    let entry = parse_entry(&fields[..10].join(" "), 2)?;
    Ok((seq, entry))
}

impl Registry {
    /// Opens an existing registry, reading its layout file (if any) and
    /// manifest(s). A `root` that holds neither (a missing or empty
    /// directory, say) is a `NotFound` error that names it.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        if !Self::registry_exists(&root) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!(
                    "{}: not a registry (no {MANIFEST} or {LAYOUT_FILE})",
                    root.display()
                ),
            ));
        }
        match RegistryLayout::read(&root)? {
            Some(layout) if layout.shards > 0 => Self::open_sharded(root, layout),
            Some(layout) => Self::open_flat(root, layout),
            None => Self::open_flat(root, RegistryLayout::flat_text()),
        }
    }

    fn open_flat(root: PathBuf, layout: RegistryLayout) -> std::io::Result<Self> {
        let (text, torn) = read_manifest_text(&root.join(MANIFEST))?;
        let mut lines = text.lines();
        let version = match lines.next() {
            Some(HEADER_V2) => 2,
            Some(HEADER_V1) => 1,
            _ => return Err(bad("missing registry manifest header")),
        };
        let mut entries = Vec::new();
        let mut names_idx = HashSet::new();
        for line in lines {
            if line.trim().is_empty() {
                continue;
            }
            let entry = parse_entry(line, version)?;
            if !names_idx.insert(entry.name.clone()) {
                return Err(bad(&format!(
                    "duplicate snapshot {:?} in manifest",
                    entry.name
                )));
            }
            entries.push(entry);
        }
        let next_seq = entries.len() as u64;
        Ok(Self {
            root,
            entries,
            names_idx,
            version,
            layout,
            torn,
            next_seq,
        })
    }

    fn open_sharded(root: PathBuf, layout: RegistryLayout) -> std::io::Result<Self> {
        let mut tagged: Vec<(u64, SnapshotEntry)> = Vec::new();
        let mut torn = 0;
        for s in 0..layout.shards {
            let dir = RegistryLayout::shard_dir(s);
            let (text, t) = read_manifest_text(&root.join(&dir).join(MANIFEST))?;
            torn += t;
            let mut lines = text.lines();
            if lines.next() != Some(HEADER_SHARD) {
                return Err(bad(&format!("missing shard manifest header in {dir}")));
            }
            for line in lines {
                if line.trim().is_empty() {
                    continue;
                }
                tagged.push(parse_shard_entry(line)?);
            }
        }
        // Global insertion order is the seq order; per-shard order is
        // only the per-shard subsequence of it.
        tagged.sort_by_key(|(seq, _)| *seq);
        if let Some(w) = tagged.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(bad(&format!(
                "duplicate seq {} in shard manifests ({:?} and {:?})",
                w[0].0, w[0].1.name, w[1].1.name
            )));
        }
        let next_seq = tagged.last().map_or(0, |(s, _)| s + 1);
        let mut entries = Vec::with_capacity(tagged.len());
        let mut names_idx = HashSet::with_capacity(tagged.len());
        for (_, entry) in tagged {
            if !names_idx.insert(entry.name.clone()) {
                return Err(bad(&format!(
                    "duplicate snapshot {:?} in shard manifests",
                    entry.name
                )));
            }
            entries.push(entry);
        }
        Ok(Self {
            root,
            entries,
            names_idx,
            version: 2,
            layout,
            torn,
            next_seq,
        })
    }

    /// True when `root` already holds a registry (a manifest or a layout
    /// file).
    fn registry_exists(root: &Path) -> bool {
        root.join(MANIFEST).exists() || root.join(LAYOUT_FILE).exists()
    }

    /// Opens the registry at `root`, creating an empty one (classic
    /// flat/text layout) if none exists yet. An existing registry opens
    /// with whatever layout it was created with.
    pub fn open_or_create(root: impl Into<PathBuf>) -> std::io::Result<Self> {
        let root = root.into();
        if Self::registry_exists(&root) {
            return Self::open(root);
        }
        Self::create(root, RegistryLayout::flat_text())
    }

    /// Like [`Registry::open_or_create`], but a freshly created registry
    /// uses `layout`; opening an existing registry whose recorded layout
    /// differs from `layout` is an error (the layout is fixed at
    /// creation — re-laying-out means building a new registry).
    pub fn open_or_create_with(
        root: impl Into<PathBuf>,
        layout: RegistryLayout,
    ) -> std::io::Result<Self> {
        let root = root.into();
        if Self::registry_exists(&root) {
            let reg = Self::open(root)?;
            if reg.layout != layout {
                return Err(bad(&format!(
                    "registry already exists with shards={} format={}; asked for shards={} format={}",
                    reg.layout.shards, reg.layout.format, layout.shards, layout.format
                )));
            }
            return Ok(reg);
        }
        Self::create(root, layout)
    }

    /// Creates an empty registry. Shard directories and manifests are
    /// written first and the layout file last, so its presence certifies
    /// the structure beneath it; a crash mid-creation leaves a directory
    /// [`Registry::open`] refuses and a re-run repairs idempotently. A
    /// shard count the `shard-NNN` naming cannot hold is rejected before
    /// anything touches the disk.
    fn create(root: PathBuf, layout: RegistryLayout) -> std::io::Result<Self> {
        layout.check_shards(std::io::ErrorKind::InvalidInput)?;
        std::fs::create_dir_all(&root)?;
        if layout.shards > 0 {
            for s in 0..layout.shards {
                let dir = root.join(RegistryLayout::shard_dir(s));
                std::fs::create_dir_all(&dir)?;
                persist_file(&dir.join(MANIFEST), |f| writeln!(f, "{HEADER_SHARD}"))?;
            }
        } else {
            persist_file(&root.join(MANIFEST), |f| writeln!(f, "{HEADER_V2}"))?;
        }
        if !layout.is_classic() {
            layout.write(&root)?;
        }
        Ok(Self {
            root,
            entries: Vec::new(),
            names_idx: HashSet::new(),
            version: 2,
            layout,
            torn: 0,
            next_seq: 0,
        })
    }

    /// The registry's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The registry's directory layout and artifact format.
    pub fn layout(&self) -> RegistryLayout {
        self.layout
    }

    /// Number of torn trailing manifest lines ignored on open — nonzero
    /// after recovering from a crash that interrupted a manifest append.
    /// The lost line's artifacts may exist on disk unindexed; re-adding
    /// the snapshot reconciles them.
    pub fn torn_lines(&self) -> usize {
        self.torn
    }

    /// Manifest entries in insertion order.
    pub fn entries(&self) -> &[SnapshotEntry] {
        &self.entries
    }

    /// Manifest entries of one kind, in insertion order.
    pub fn entries_of(&self, kind: SnapshotKind) -> Vec<&SnapshotEntry> {
        self.entries.iter().filter(|e| e.kind == kind).collect()
    }

    /// The distinct snapshot kinds present, in first-appearance order.
    pub fn kinds(&self) -> Vec<SnapshotKind> {
        let mut out = Vec::new();
        for e in &self.entries {
            if !out.contains(&e.kind) {
                out.push(e.kind);
            }
        }
        out
    }

    /// Snapshot names in insertion order.
    pub fn names(&self) -> Vec<&str> {
        self.entries.iter().map(|e| e.name.as_str()).collect()
    }

    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the registry holds no snapshots.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if a snapshot with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.names_idx.contains(name)
    }

    fn entry(&self, name: &str) -> Option<&SnapshotEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// The directory a snapshot's artifacts live in: the root for flat
    /// layouts, its hash shard otherwise.
    fn snapshot_dir(&self, name: &str) -> PathBuf {
        match self.layout.shard_of(name) {
            Some(s) => self.root.join(RegistryLayout::shard_dir(s)),
            None => self.root.clone(),
        }
    }

    fn artifact_path(&self, name: &str, ext: &str) -> PathBuf {
        let dir = self.snapshot_dir(name);
        match self.layout.format {
            StorageFormat::Text => dir.join(format!("{name}.{ext}")),
            StorageFormat::Binary => dir.join(format!("{name}.{ext}.bin")),
        }
    }

    /// The manifest file a snapshot's index line belongs in.
    fn manifest_path(&self, name: &str) -> PathBuf {
        self.snapshot_dir(name).join(MANIFEST)
    }

    /// Rewrites a v1 manifest in v2 format so new kind-tagged lines can be
    /// appended. The rewrite goes through [`persist_file`] (temp file +
    /// fsync + rename + directory fsync), so a crash leaves either the old
    /// or the new manifest, never a torn or lost one.
    fn upgrade_manifest(&mut self) -> std::io::Result<()> {
        if self.version == 2 {
            return Ok(());
        }
        persist_file(&self.root.join(MANIFEST), |f| {
            writeln!(f, "{HEADER_V2}")?;
            for e in &self.entries {
                writeln!(f, "{}", e.manifest_line())?;
            }
            Ok(())
        })?;
        self.version = 2;
        Ok(())
    }

    /// Adds a snapshot of any family: persists the dataset and model in
    /// the registry's storage format and appends the manifest line.
    /// Fails on duplicate or invalid names without touching the directory.
    pub fn add_snapshot<F: SnapshotFamily>(
        &mut self,
        name: &str,
        data: &F::Dataset,
        model: &F::Model,
    ) -> std::io::Result<&SnapshotEntry> {
        check_name(name)?;
        if self.contains(name) {
            return Err(bad(&format!("snapshot {name:?} already registered")));
        }
        match self.layout.format {
            StorageFormat::Text => {
                persist_file(&self.artifact_path(name, F::DATA_EXT), |f| {
                    F::write_dataset(data, f)
                })?;
                persist_file(&self.artifact_path(name, F::MODEL_EXT), |f| {
                    F::write_model(model, data, f)
                })?;
            }
            StorageFormat::Binary => {
                // Encode the model first: an unpersistable model (e.g.
                // classful cluster regions) must fail before any file
                // lands, exactly as the text path's first write does.
                let model_bytes = F::encode_model(model, data)?;
                let data_bytes = F::encode_dataset(data);
                persist_file(&self.artifact_path(name, F::DATA_EXT), |f| {
                    f.write_all(&data_bytes)
                })?;
                persist_file(&self.artifact_path(name, F::MODEL_EXT), |f| {
                    f.write_all(&model_bytes)
                })?;
            }
        }
        let entry = SnapshotEntry {
            name: name.to_string(),
            kind: F::KIND,
            minsup: F::model_minsup(model),
            n_rows: F::data_len(data),
            n_regions: F::model_regions(model),
        };
        let line = if self.layout.shards > 0 {
            format!("{} seq {}", entry.manifest_line(), self.next_seq)
        } else {
            self.upgrade_manifest()?;
            entry.manifest_line()
        };
        let manifest_path = self.manifest_path(name);
        // Appending after an unterminated torn tail would weld two lines
        // together; drop the tail (durably) before extending the file.
        repair_manifest_tail(&manifest_path)?;
        let mut manifest = OpenOptions::new().append(true).open(manifest_path)?;
        writeln!(manifest, "{line}")?;
        // The artifacts are already durable; make the index line durable
        // too before reporting success, or a crash could land a snapshot
        // whose files exist but which the manifest has never heard of.
        manifest.sync_all()?;
        self.next_seq += 1;
        self.names_idx.insert(entry.name.clone());
        self.entries.push(entry);
        Ok(self.entries.last().expect("just pushed"))
    }

    /// Loads one snapshot's model, checking the stored kind matches `F`.
    pub fn load_snapshot_model<F: SnapshotFamily>(&self, name: &str) -> std::io::Result<F::Model> {
        self.check_kind::<F>(name)?;
        let path = self.artifact_path(name, F::MODEL_EXT);
        match self.layout.format {
            StorageFormat::Text => F::read_model(File::open(path)?),
            StorageFormat::Binary => F::decode_model(&MappedBytes::open(&path)?),
        }
    }

    /// Loads one snapshot's dataset, checking the stored kind matches `F`.
    /// Binary registries read zero-copy through
    /// [`crate::binfmt::MappedBytes`] where the platform allows.
    pub fn load_snapshot_dataset<F: SnapshotFamily>(
        &self,
        name: &str,
    ) -> std::io::Result<F::Dataset> {
        self.check_kind::<F>(name)?;
        let path = self.artifact_path(name, F::DATA_EXT);
        match self.layout.format {
            StorageFormat::Text => F::read_dataset(File::open(path)?),
            StorageFormat::Binary => F::decode_dataset(&MappedBytes::open(&path)?),
        }
    }

    /// Loads one **lits** snapshot as an owning [`CountSource`] — the
    /// counting handle the deviation engines scan through. Binary
    /// registries take the decode-to-index seam: the vertical tid-bitset
    /// index is built straight from the (memory-mapped) columnar words in
    /// one pass, with the same checksum and CSR validation as
    /// [`Registry::load_snapshot_dataset`] but no intermediate
    /// `TransactionSet`. Text registries wrap the parsed dataset, so the
    /// index is built lazily if and when the cost model wants it. Either
    /// way counts are bit-identical to scanning the loaded dataset.
    pub fn load_snapshot_source(&self, name: &str) -> std::io::Result<CountSource<'static>> {
        self.check_kind::<LitsFamily>(name)?;
        let path = self.artifact_path(name, <LitsFamily as SnapshotFamily>::DATA_EXT);
        match self.layout.format {
            StorageFormat::Text => Ok(CountSource::from_owned(
                <LitsFamily as SnapshotFamily>::read_dataset(File::open(path)?)?,
            )),
            StorageFormat::Binary => {
                let index =
                    crate::binfmt::decode_transactions_to_index(&MappedBytes::open(&path)?)?;
                Ok(CountSource::from_index(index))
            }
        }
    }

    fn check_kind<F: SnapshotFamily>(&self, name: &str) -> std::io::Result<()> {
        let entry = self
            .entry(name)
            .ok_or_else(|| bad(&format!("unknown snapshot {name:?}")))?;
        if entry.kind != F::KIND {
            return Err(bad(&format!(
                "snapshot {name:?} is a {} snapshot, not {}",
                entry.kind,
                F::KIND
            )));
        }
        Ok(())
    }

    /// Adds a lits snapshot: mines its model at `minsup` (same miner
    /// configuration as the CLI `mine` subcommand) and persists both.
    pub fn add(
        &mut self,
        name: &str,
        data: &TransactionSet,
        minsup: f64,
    ) -> std::io::Result<&SnapshotEntry> {
        // Reject bad/duplicate names *before* paying for the mine
        // (`add_snapshot` re-checks, but by then the work is done).
        check_name(name)?;
        if self.contains(name) {
            return Err(bad(&format!("snapshot {name:?} already registered")));
        }
        let model = Apriori::new(
            AprioriParams::with_minsup(minsup)
                .max_len(10)
                .min_count_floor(2),
        )
        .mine(data);
        self.add_snapshot::<LitsFamily>(name, data, &model)
    }

    /// Computes the screened pairwise deviation matrix of the registry's
    /// snapshots of family `F` (other kinds are ignored). Models are
    /// loaded up front; datasets are loaded only for pairs that survive
    /// screening, so a high threshold never pays dataset IO at all —
    /// families without a model-only bound load (and scan) everything.
    pub fn matrix_of<F: SnapshotFamily>(
        &self,
        params: &MatrixParams,
    ) -> std::io::Result<DeviationMatrix> {
        params.validate()?;
        let entries = self.entries_of(F::KIND);
        let mut models = Vec::with_capacity(entries.len());
        for e in &entries {
            models.push(self.load_snapshot_model::<F>(&e.name)?);
        }
        // The screening decision needs only the models: run the phase-1
        // bound sweep once, load exactly the datasets that participate in
        // a surviving pair (the others get cheap empty stand-ins phase
        // two never touches), and hand the bounds to the engine so the
        // sweep is not paid twice.
        let bounds = crate::matrix::pair_bounds::<F>(&models, params.agg, params.par);
        let needed = crate::matrix::screened_members::<F>(&models, bounds.as_deref(), params);
        let mut datasets = Vec::with_capacity(entries.len());
        for (entry, needed) in entries.iter().zip(&needed) {
            datasets.push(if *needed {
                self.load_snapshot_dataset::<F>(&entry.name)?
            } else {
                F::empty_dataset()
            });
        }
        let names: Vec<String> = entries.iter().map(|e| e.name.clone()).collect();
        Ok(crate::matrix::deviation_matrix_with_bounds::<F>(
            &models, &datasets, names, params, bounds,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_dataset;
    use focus_core::data::{LabeledTable, Schema, Value};
    use focus_core::family::{ClusterFamily, DtFamily};
    use focus_core::model::{induce_dt_measures, ClusterModel};
    use focus_core::region::BoxBuilder;
    use focus_exec::Parallelism;
    use std::sync::Arc;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("focus-registry-{tag}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).unwrap();
        }
        dir
    }

    #[test]
    fn add_persists_and_reopens() {
        let dir = scratch("roundtrip");
        let mut reg = Registry::open_or_create(&dir).unwrap();
        let d1 = random_dataset(1, 300, 0.0);
        let d2 = random_dataset(2, 300, 1.0);
        reg.add("day-01", &d1, 0.1).unwrap();
        reg.add("day-02", &d2, 0.1).unwrap();
        assert_eq!(reg.names(), vec!["day-01", "day-02"]);

        // A fresh handle sees the same entries and identical artifacts.
        let back = Registry::open(&dir).unwrap();
        assert_eq!(back.entries(), reg.entries());
        assert_eq!(
            back.load_snapshot_dataset::<LitsFamily>("day-01").unwrap(),
            d1
        );
        let m1 = back.load_snapshot_model::<LitsFamily>("day-01").unwrap();
        assert_eq!(m1.minsup(), 0.1);
        assert!(!m1.is_empty());
        assert_eq!(back.entries()[0].kind, SnapshotKind::Lits);
        assert_eq!(back.entries()[0].minsup, Some(0.1));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rejects_duplicates_and_bad_names() {
        let dir = scratch("names");
        let mut reg = Registry::open_or_create(&dir).unwrap();
        let d = random_dataset(1, 100, 0.0);
        reg.add("ok", &d, 0.2).unwrap();
        assert!(reg.add("ok", &d, 0.2).is_err(), "duplicate must fail");
        for bad_name in ["", "has space", "a/b", ".hidden", "semi;colon"] {
            assert!(reg.add(bad_name, &d, 0.2).is_err(), "{bad_name:?}");
        }
        // Failed adds leave the registry unchanged.
        assert_eq!(reg.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_requires_manifest() {
        let dir = scratch("missing");
        std::fs::create_dir_all(&dir).unwrap();
        let err = Registry::open(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
        let msg = err.to_string();
        assert!(
            msg.contains(&dir.display().to_string()) && msg.contains("not a registry"),
            "{msg}"
        );
        // A garbage manifest is InvalidData, not a panic.
        std::fs::write(dir.join(MANIFEST), "not a manifest\n").unwrap();
        let err = Registry::open(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_snapshot_is_an_error() {
        let dir = scratch("unknown");
        let reg = Registry::open_or_create(&dir).unwrap();
        assert!(reg.load_snapshot_model::<LitsFamily>("nope").is_err());
        assert!(reg.load_snapshot_dataset::<LitsFamily>("nope").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_source_counts_match_loaded_dataset() {
        use focus_core::model::count_itemsets;
        use focus_core::region::Itemset;
        for format in [StorageFormat::Text, StorageFormat::Binary] {
            let dir = scratch(&format!("source-{format:?}"));
            let layout = RegistryLayout { shards: 0, format };
            let mut reg = Registry::open_or_create_with(&dir, layout).unwrap();
            let data = random_dataset(7, 250, 0.5);
            reg.add("day-01", &data, 0.1).unwrap();

            let source = reg.load_snapshot_source("day-01").unwrap();
            // Binary registries decode straight to the index; text ones
            // defer the build to the cost model.
            assert_eq!(source.index_built(), format == StorageFormat::Binary);
            assert_eq!(source.len(), data.len());

            let itemsets: Vec<Itemset> = (0..8u32)
                .map(|i| Itemset::from_slice(&[i, (i + 3) % 8]))
                .chain(std::iter::once(Itemset::new(vec![])))
                .collect();
            let expect = count_itemsets(&data, &itemsets, Parallelism::Sequential);
            assert_eq!(
                source.counts(&itemsets, Parallelism::Sequential),
                expect,
                "{format:?}"
            );

            // Non-lits snapshots and unknown names are errors.
            let (dt_data, dt_model) = dt_snapshot(40.0);
            reg.add_snapshot::<DtFamily>("dt-day", &dt_data, &dt_model)
                .unwrap();
            assert!(reg.load_snapshot_source("dt-day").is_err());
            assert!(reg.load_snapshot_source("nope").is_err());
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn v1_manifests_open_as_lits_and_upgrade_on_write() {
        let dir = scratch("v1compat");
        // Build a registry, then rewrite its manifest in the v1 format.
        let mut reg = Registry::open_or_create(&dir).unwrap();
        let d = random_dataset(1, 200, 0.0);
        reg.add("day-01", &d, 0.2).unwrap();
        let entry = reg.entries()[0].clone();
        std::fs::write(
            dir.join(MANIFEST),
            format!(
                "{HEADER_V1}\nsnapshot {} minsup {} n {} itemsets {}\n",
                entry.name,
                entry.minsup.unwrap(),
                entry.n_rows,
                entry.n_regions
            ),
        )
        .unwrap();

        let mut back = Registry::open(&dir).unwrap();
        assert_eq!(back.entries(), std::slice::from_ref(&entry));
        assert_eq!(
            back.load_snapshot_dataset::<LitsFamily>("day-01").unwrap(),
            d
        );

        // The first write upgrades the manifest in place to v2.
        back.add("day-02", &random_dataset(2, 200, 1.0), 0.2)
            .unwrap();
        let text = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();
        assert!(text.starts_with(HEADER_V2), "{text}");
        let again = Registry::open(&dir).unwrap();
        assert_eq!(again.len(), 2);
        assert_eq!(again.entries()[0], entry);
        std::fs::remove_dir_all(&dir).ok();
    }

    fn dt_snapshot_rows(boundary: f64, rows: usize) -> (LabeledTable, focus_core::model::DtModel) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut d = LabeledTable::new(Arc::clone(&schema), 2);
        for r in 0..rows {
            let x = r as f64;
            d.push_row(&[Value::Num(x)], u32::from(x < boundary));
        }
        let model = induce_dt_measures(
            vec![
                BoxBuilder::new(&schema).lt("x", boundary).build(),
                BoxBuilder::new(&schema).ge("x", boundary).build(),
            ],
            &d,
        );
        (d, model)
    }

    fn dt_snapshot(boundary: f64) -> (LabeledTable, focus_core::model::DtModel) {
        dt_snapshot_rows(boundary, 150)
    }

    #[test]
    fn mixed_kind_registry_round_trips_and_filters() {
        let dir = scratch("mixed");
        let mut reg = Registry::open_or_create(&dir).unwrap();
        let lits_data = random_dataset(1, 200, 0.0);
        reg.add("txn-day", &lits_data, 0.2).unwrap();
        let (dt_data, dt_model) = dt_snapshot(40.0);
        reg.add_snapshot::<DtFamily>("dt-day", &dt_data, &dt_model)
            .unwrap();

        assert_eq!(reg.kinds(), vec![SnapshotKind::Lits, SnapshotKind::Dt]);
        assert_eq!(reg.entries_of(SnapshotKind::Dt).len(), 1);
        assert_eq!(reg.entries_of(SnapshotKind::Lits).len(), 1);
        let dt_entry = reg.entries_of(SnapshotKind::Dt)[0];
        assert_eq!(dt_entry.minsup, None);
        assert_eq!(dt_entry.n_regions, 2);

        // Reopen: kinds survive; typed loads enforce the kind.
        let back = Registry::open(&dir).unwrap();
        assert_eq!(back.entries(), reg.entries());
        assert_eq!(
            back.load_snapshot_model::<DtFamily>("dt-day").unwrap(),
            dt_model
        );
        assert_eq!(
            back.load_snapshot_dataset::<DtFamily>("dt-day").unwrap(),
            dt_data
        );
        let err = back.load_snapshot_model::<DtFamily>("txn-day").unwrap_err();
        assert!(err.to_string().contains("lits snapshot"), "{err}");
        // The lits matrix sees only the lits snapshot.
        let m = back
            .matrix_of::<LitsFamily>(&MatrixParams::default())
            .unwrap();
        assert_eq!(m.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dt_matrix_from_registry_screens_and_skips_pruned_io() {
        let dir = scratch("dtmatrix");
        let mut reg = Registry::open_or_create(&dir).unwrap();
        // `a` and `b` share a leaf partition (small bound); `c` does not
        // (bound = full mass of both trees, 2.0).
        for (name, b, rows) in [("a", 30.0, 120), ("b", 30.0, 150), ("c", 90.0, 150)] {
            let (d, m) = dt_snapshot_rows(b, rows);
            reg.add_snapshot::<DtFamily>(name, &d, &m).unwrap();
        }
        let full = reg
            .matrix_of::<DtFamily>(&MatrixParams {
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            })
            .unwrap();
        assert!(full.has_bounds());
        assert_eq!((full.n_pairs(), full.pruned()), (3, 0));

        // Threshold 2.5 prunes every pair: (a, b)'s bound is tiny and the
        // structurally-different pairs max out at the trees' total mass
        // (2.0). With nothing surviving, no dataset is ever read — prove
        // it by corrupting the dataset files.
        for name in ["a", "b", "c"] {
            std::fs::write(dir.join(format!("{name}.tbl")), "garbage").unwrap();
        }
        let screened = reg
            .matrix_of::<DtFamily>(&MatrixParams {
                threshold: 2.5,
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            })
            .unwrap();
        assert_eq!((screened.scanned(), screened.pruned()), (0, 3));
        // The bounds survive unchanged and still embed (dt δ* is a metric).
        assert_eq!(screened.bound(0, 2).to_bits(), full.bound(0, 2).to_bits());
        assert_eq!(screened.embed(2).unwrap().len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn matrix_from_registry_prunes_and_scans() {
        let dir = scratch("matrix");
        let mut reg = Registry::open_or_create(&dir).unwrap();
        // Two similar snapshots and one far-away one: with a threshold
        // between the intra- and inter-group bounds, exactly one pair is
        // pruned.
        reg.add("a", &random_dataset(1, 300, 0.0), 0.15).unwrap();
        reg.add("b", &random_dataset(2, 300, 0.0), 0.15).unwrap();
        reg.add("c", &random_dataset(3, 300, 1.0), 0.15).unwrap();
        let mut params = MatrixParams {
            par: Parallelism::Sequential,
            ..MatrixParams::default()
        };
        let all = reg.matrix_of::<LitsFamily>(&params).unwrap();
        assert_eq!(all.n_pairs(), 3);
        assert_eq!(all.pruned(), 0, "threshold 0 scans every positive pair");

        params.threshold = all.bound(0, 1) + 1e-9;
        let screened = reg.matrix_of::<LitsFamily>(&params).unwrap();
        assert!(screened.pruned() >= 1, "similar pair must be pruned");
        assert!(screened.scanned() >= 1, "distant pair must be scanned");
        // Screening never changes the values of surviving pairs.
        for i in 0..3 {
            for j in (i + 1)..3 {
                if screened.exact(i, j).is_some() {
                    assert_eq!(
                        screened.exact(i, j).unwrap().to_bits(),
                        all.exact(i, j).unwrap().to_bits()
                    );
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_trailing_manifest_line_is_tolerated_at_every_offset() {
        let dir = scratch("torn");
        let mut reg = Registry::open_or_create(&dir).unwrap();
        reg.add("day-01", &random_dataset(1, 80, 0.0), 0.3).unwrap();
        reg.add("day-02", &random_dataset(2, 80, 1.0), 0.3).unwrap();
        let full = std::fs::read(dir.join(MANIFEST)).unwrap();
        assert_eq!(*full.last().unwrap(), b'\n', "writer terminates lines");

        // Crash-inject: truncate the manifest at every byte offset. The
        // complete lines must survive, an unterminated tail must be
        // dropped (and counted), and a manifest whose header never made
        // it to disk must refuse to open.
        for cut in 0..=full.len() {
            let prefix = &full[..cut];
            std::fs::write(dir.join(MANIFEST), prefix).unwrap();
            let newlines = prefix.iter().filter(|&&b| b == b'\n').count();
            let opened = Registry::open(&dir);
            if newlines == 0 {
                assert!(opened.is_err(), "cut {cut}: headerless must fail");
                continue;
            }
            let back = opened.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!(back.len(), newlines - 1, "cut {cut}");
            let torn = usize::from(!prefix.ends_with(b"\n"));
            assert_eq!(back.torn_lines(), torn, "cut {cut}");
            for (i, e) in back.entries().iter().enumerate() {
                assert_eq!(e.name, format!("day-0{}", i + 1), "cut {cut}");
            }
        }

        // Recovery: re-adding the snapshot whose line was torn works on
        // the reopened handle (its artifacts are simply overwritten).
        std::fs::write(dir.join(MANIFEST), &full[..full.len() - 1]).unwrap();
        let mut back = Registry::open(&dir).unwrap();
        assert_eq!((back.len(), back.torn_lines()), (1, 1));
        back.add("day-02", &random_dataset(2, 80, 1.0), 0.3)
            .unwrap();
        assert_eq!(
            Registry::open(&dir).unwrap().names(),
            vec!["day-01", "day-02"]
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn malformed_terminated_lines_still_error() {
        let dir = scratch("interior");
        let mut reg = Registry::open_or_create(&dir).unwrap();
        reg.add("day-01", &random_dataset(1, 80, 0.0), 0.3).unwrap();
        let full = std::fs::read_to_string(dir.join(MANIFEST)).unwrap();

        // A malformed *interior* line is corruption, not a torn append.
        let (header, entry) = full.split_once('\n').unwrap();
        std::fs::write(dir.join(MANIFEST), format!("{header}\nwat wat\n{entry}")).unwrap();
        assert!(Registry::open(&dir).is_err());
        // So is a malformed *final* line that carries its newline: the
        // writer terminated it, so truncation cannot explain the damage.
        std::fs::write(dir.join(MANIFEST), format!("{full}wat wat\n")).unwrap();
        assert!(Registry::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_file_ignores_stale_tmp_files_and_cleans_up() {
        let dir = scratch("tmpfiles");
        std::fs::create_dir_all(&dir).unwrap();
        let target = dir.join("out.txt");
        // A stale temp from the old fixed-name scheme (or any crashed
        // writer) must be neither reused nor clobbered.
        let stale = dir.join("out.txt.tmp");
        std::fs::write(&stale, "stale").unwrap();
        persist_file(&target, |f| f.write_all(b"fresh")).unwrap();
        assert_eq!(std::fs::read_to_string(&target).unwrap(), "fresh");
        assert_eq!(std::fs::read_to_string(&stale).unwrap(), "stale");

        // A failed write leaves no temp droppings and no target.
        let missing = dir.join("never.txt");
        let err = persist_file(&missing, |_| Err(bad("boom"))).unwrap_err();
        assert_eq!(err.to_string(), "boom");
        assert!(!missing.exists());
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|n| n.contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    fn cluster_snapshot(split: f64) -> (focus_core::data::Table, ClusterModel) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut t = focus_core::data::Table::new(Arc::clone(&schema));
        for r in 0..80 {
            t.push_row(&[Value::Num(r as f64)]);
        }
        let clusters = vec![
            BoxBuilder::new(&schema).lt("x", split).build(),
            BoxBuilder::new(&schema).ge("x", split).build(),
        ];
        let lo = (split.clamp(0.0, 80.0) / 80.0 * 80.0).round() / 80.0;
        let model = ClusterModel::new(clusters, vec![lo, 1.0 - lo], t.len() as u64);
        (t, model)
    }

    #[test]
    fn sharded_binary_registry_round_trips_all_families() {
        let dir = scratch("sharded-bin");
        let layout = RegistryLayout {
            shards: 3,
            format: StorageFormat::Binary,
        };
        let mut reg = Registry::open_or_create_with(&dir, layout).unwrap();
        assert_eq!(reg.layout(), layout);

        let lits_data = random_dataset(1, 200, 0.4);
        reg.add("txn-day", &lits_data, 0.2).unwrap();
        let (dt_data, dt_model) = dt_snapshot(40.0);
        reg.add_snapshot::<DtFamily>("dt-day", &dt_data, &dt_model)
            .unwrap();
        let (clu_data, clu_model) = cluster_snapshot(30.0);
        reg.add_snapshot::<ClusterFamily>("clu-day", &clu_data, &clu_model)
            .unwrap();

        // Artifacts live in shard directories with a `.bin` suffix; the
        // root holds only the layout file and the shard directories.
        for name in ["txn-day", "dt-day", "clu-day"] {
            let shard = layout.shard_of(name).unwrap();
            let sdir = dir.join(RegistryLayout::shard_dir(shard));
            let found = std::fs::read_dir(&sdir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|f| f.starts_with(name))
                .collect::<Vec<_>>();
            assert_eq!(found.len(), 2, "{name}: {found:?}");
            assert!(found.iter().all(|f| f.ends_with(".bin")), "{found:?}");
        }
        let root_files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            root_files
                .iter()
                .all(|f| f == LAYOUT_FILE || f.starts_with("shard-")),
            "{root_files:?}"
        );

        // A fresh handle merges the shard manifests back into insertion
        // order and decodes identical artifacts.
        let back = Registry::open(&dir).unwrap();
        assert_eq!(back.entries(), reg.entries());
        assert_eq!(back.names(), vec!["txn-day", "dt-day", "clu-day"]);
        assert_eq!(
            back.load_snapshot_dataset::<LitsFamily>("txn-day").unwrap(),
            lits_data
        );
        assert_eq!(
            back.load_snapshot_dataset::<DtFamily>("dt-day").unwrap(),
            dt_data
        );
        assert_eq!(
            back.load_snapshot_model::<DtFamily>("dt-day").unwrap(),
            dt_model
        );
        assert_eq!(
            back.load_snapshot_dataset::<ClusterFamily>("clu-day")
                .unwrap(),
            clu_data
        );
        assert_eq!(
            back.load_snapshot_model::<ClusterFamily>("clu-day")
                .unwrap(),
            clu_model
        );

        // `open_or_create` respects the existing layout instead of
        // clobbering it; asking for a *different* layout is an error.
        assert_eq!(Registry::open_or_create(&dir).unwrap().layout(), layout);
        assert!(Registry::open_or_create_with(&dir, RegistryLayout::flat_text()).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shard_manifest_torn_tail_is_tolerated() {
        let dir = scratch("shard-torn");
        let layout = RegistryLayout {
            shards: 2,
            format: StorageFormat::Text,
        };
        let mut reg = Registry::open_or_create_with(&dir, layout).unwrap();
        for (name, seed) in [("a", 1), ("b", 2), ("c", 3)] {
            reg.add(name, &random_dataset(seed, 80, 0.0), 0.3).unwrap();
        }
        // "c" holds the greatest seq, so it is the last line of its
        // shard's manifest; tear that line mid-byte.
        let shard = layout.shard_of("c").unwrap();
        let manifest = dir.join(RegistryLayout::shard_dir(shard)).join(MANIFEST);
        let text = std::fs::read(&manifest).unwrap();
        std::fs::write(&manifest, &text[..text.len() - 3]).unwrap();

        let mut back = Registry::open(&dir).unwrap();
        assert_eq!(back.torn_lines(), 1);
        assert_eq!(back.names(), vec!["a", "b"]);
        // Re-adding the lost snapshot reconciles; insertion order and seq
        // numbering pick up where the survivors left off.
        back.add("c", &random_dataset(3, 80, 0.0), 0.3).unwrap();
        let healed = Registry::open(&dir).unwrap();
        assert_eq!(healed.names(), vec!["a", "b", "c"]);
        assert_eq!(healed.torn_lines(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn binary_add_of_unpersistable_model_leaves_directory_untouched() {
        let dir = scratch("bin-reject");
        let layout = RegistryLayout {
            shards: 0,
            format: StorageFormat::Binary,
        };
        let mut reg = Registry::open_or_create_with(&dir, layout).unwrap();
        let (t, clu) = cluster_snapshot(30.0);
        let classful = ClusterModel::new(
            clu.clusters()
                .iter()
                .map(|c| c.clone().with_class(0))
                .collect(),
            clu.measures().to_vec(),
            clu.n_rows(),
        );
        assert!(reg
            .add_snapshot::<ClusterFamily>("nope", &t, &classful)
            .is_err());
        assert_eq!(reg.len(), 0);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            files.iter().all(|f| f == MANIFEST || f == LAYOUT_FILE),
            "{files:?}"
        );

        // The persistable model goes through, with `.bin` artifacts in
        // the (flat) root.
        reg.add_snapshot::<ClusterFamily>("ok", &t, &clu).unwrap();
        assert!(dir.join("ok.rows.bin").exists());
        assert!(dir.join("ok.clu.bin").exists());
        let back = Registry::open(&dir).unwrap();
        assert_eq!(
            back.load_snapshot_model::<ClusterFamily>("ok").unwrap(),
            clu
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
