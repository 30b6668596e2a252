//! Registry layout: flat or hash-sharded directories.
//!
//! A flat registry is one directory — manifest plus artifact files —
//! which is fine for dozens of snapshots and wrong for 10⁴–10⁵ of them:
//! every `add` appends to one manifest and every file lands in one
//! directory whose lookup and fsync costs grow with the whole
//! population. A *sharded* registry splits the namespace by a hash of
//! the snapshot name into `shard-NNN/` subdirectories, each with its own
//! append-only manifest, so directory size and manifest length scale
//! with `N / shards`.
//!
//! The layout is fixed at creation time and recorded in a root index
//! file, `registry.layout`:
//!
//! ```text
//! #focus-registry-layout v1
//! shards <n>            0 = flat (no shard directories)
//! format bin
//! ```
//!
//! written last, with the same temp-file + fsync + rename discipline as
//! every other registry file, so its presence certifies the structure
//! beneath it. Every registry has one; a directory with a manifest but no
//! layout file, or with a layout file naming another format, is refused
//! by name.

use std::io::Write;
use std::path::{Path, PathBuf};

/// Name of the root index file.
pub(crate) const LAYOUT_FILE: &str = "registry.layout";
const LAYOUT_HEADER: &str = "#focus-registry-layout v1";
/// Most hash shards a layout may have: shard directories are named
/// `shard-NNN`, with three digits.
pub(crate) const MAX_SHARDS: u32 = 1000;

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// The artifact format a registry persists snapshots in. There is one:
/// the binary columnar format of [`crate::binfmt`], read zero-copy via
/// [`crate::binfmt::MappedBytes`] where available. The layout file and
/// the CLI still name it, as `bin`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageFormat {
    /// The binary columnar format of [`crate::binfmt`].
    #[default]
    Binary,
}

impl StorageFormat {
    /// The layout-file/CLI spelling.
    pub fn as_str(&self) -> &'static str {
        "bin"
    }

    /// Parses a layout-file/CLI spelling.
    pub fn parse(s: &str) -> Option<StorageFormat> {
        (s == "bin").then_some(StorageFormat::Binary)
    }
}

impl std::fmt::Display for StorageFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A registry's on-disk layout: how many hash shards (0 = flat). Chosen
/// at creation time; immutable afterwards. The default is flat.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryLayout {
    /// Number of hash shards; 0 keeps everything in the root directory.
    pub shards: u32,
    /// Artifact format for datasets and models.
    pub format: StorageFormat,
}

impl RegistryLayout {
    /// The shard a snapshot name lives in (`None` for flat layouts):
    /// FNV-1a 64 of the name modulo the shard count, so placement is a
    /// pure function of the name and stable across handles and releases.
    pub fn shard_of(&self, name: &str) -> Option<u32> {
        if self.shards == 0 {
            None
        } else {
            Some((crate::binfmt::fnv1a64(name.as_bytes()) % u64::from(self.shards)) as u32)
        }
    }

    /// Rejects a shard count above 1000 (the `shard-NNN` directory names
    /// run from `shard-000` to `shard-999`) with an error of `kind` that
    /// names the count.
    pub fn check_shards(&self, kind: std::io::ErrorKind) -> std::io::Result<()> {
        if self.shards > MAX_SHARDS {
            return Err(std::io::Error::new(
                kind,
                format!(
                    "shard count {} exceeds the maximum of {MAX_SHARDS} (shard-000 to shard-999)",
                    self.shards
                ),
            ));
        }
        Ok(())
    }

    /// Directory name of shard `i` (`shard-000`, `shard-001`, …).
    pub(crate) fn shard_dir(i: u32) -> String {
        format!("shard-{i:03}")
    }

    /// The directories that hold a manifest: the root when flat, every
    /// `shard-NNN/` otherwise.
    pub(crate) fn manifest_dirs(&self, root: &Path) -> Vec<PathBuf> {
        if self.shards == 0 {
            vec![root.to_path_buf()]
        } else {
            (0..self.shards)
                .map(|s| root.join(Self::shard_dir(s)))
                .collect()
        }
    }

    /// Reads `root`'s layout file. A missing file (a directory that holds
    /// only a manifest) and a malformed one are `InvalidData` errors that
    /// name the file.
    pub(crate) fn read(root: &Path) -> std::io::Result<RegistryLayout> {
        let path = root.join(LAYOUT_FILE);
        let named = |msg: &str| bad(&format!("{}: {msg}", path.display()));
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(named(
                    "missing; the registry was written by an earlier release \
                     (or its creation was interrupted) — rebuild it in a new directory",
                ))
            }
            Err(e) => return Err(crate::registry::at_path(&path, e)),
        };
        let mut lines = text.lines();
        if lines.next() != Some(LAYOUT_HEADER) {
            return Err(named("missing registry layout header"));
        }
        let mut shards = None;
        let mut format = None;
        for line in lines {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match line.split_once(' ') {
                Some(("shards", v)) => {
                    shards = Some(
                        v.trim()
                            .parse()
                            .map_err(|e| named(&format!("bad shard count: {e}")))?,
                    );
                }
                Some(("format", v)) => {
                    format = Some(StorageFormat::parse(v.trim()).ok_or_else(|| {
                        named(&format!(
                            "unsupported storage format {:?} (registries store bin artifacts only)",
                            v.trim()
                        ))
                    })?);
                }
                _ => return Err(named(&format!("malformed layout line {line:?}"))),
            }
        }
        let layout = RegistryLayout {
            shards: shards.ok_or_else(|| named("missing shards line"))?,
            format: format.ok_or_else(|| named("missing format line"))?,
        };
        layout
            .check_shards(std::io::ErrorKind::InvalidData)
            .map_err(|e| named(&e.to_string()))?;
        Ok(layout)
    }

    /// Durably writes the layout file through the registry's
    /// `persist_file` (temp + fsync + rename + directory fsync).
    pub(crate) fn write(&self, root: &Path) -> std::io::Result<()> {
        crate::registry::persist_file(&root.join(LAYOUT_FILE), |f| {
            writeln!(f, "{LAYOUT_HEADER}")?;
            writeln!(f, "shards {}", self.shards)?;
            writeln!(f, "format {}", self.format)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_spellings_round_trip() {
        let fmt = StorageFormat::Binary;
        assert_eq!(StorageFormat::parse(fmt.as_str()), Some(fmt));
        assert_eq!(format!("{fmt}"), "bin");
        assert_eq!(StorageFormat::parse("text"), None);
        assert_eq!(StorageFormat::parse("nope"), None);
    }

    #[test]
    fn shard_placement_is_stable_and_covers_all_shards() {
        let layout = RegistryLayout {
            shards: 8,
            format: StorageFormat::Binary,
        };
        let mut seen = [false; 8];
        for i in 0..200 {
            let name = format!("snap-{i}");
            let s = layout.shard_of(&name).unwrap();
            assert_eq!(layout.shard_of(&name), Some(s), "placement must be pure");
            assert!(s < 8);
            seen[s as usize] = true;
        }
        assert!(
            seen.iter().all(|&s| s),
            "200 names should touch all 8 shards"
        );
        assert_eq!(RegistryLayout::default().shard_of("snap-1"), None);
        assert_eq!(RegistryLayout::shard_dir(3), "shard-003");
    }

    #[test]
    fn layout_file_round_trips_and_rejects_garbage() {
        let dir = std::env::temp_dir().join(format!("focus-layout-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let layout = RegistryLayout {
            shards: 16,
            format: StorageFormat::Binary,
        };
        layout.write(&dir).unwrap();
        assert_eq!(RegistryLayout::read(&dir).unwrap(), layout);

        let missing = dir.join("nope");
        let err = RegistryLayout::read(&missing).unwrap_err();
        let named = format!("{}: missing", missing.join(LAYOUT_FILE).display());
        assert!(err.to_string().starts_with(&named), "{err}");

        for garbage in [
            "not a layout\n",
            "#focus-registry-layout v1\nshards x\nformat bin\n",
            "#focus-registry-layout v1\nshards 0\nformat text\n",
            "#focus-registry-layout v1\nshards 4\nformat carrier-pigeon\n",
            "#focus-registry-layout v1\nshards 4\n",
            "#focus-registry-layout v1\nwat\n",
        ] {
            std::fs::write(dir.join(LAYOUT_FILE), garbage).unwrap();
            let err = RegistryLayout::read(&dir).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{garbage:?}");
            assert!(err.to_string().contains(LAYOUT_FILE), "{garbage:?}: {err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn layout_file_with_too_many_shards_fails_to_open() {
        let dir = std::env::temp_dir().join(format!("focus-layout-max-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join(LAYOUT_FILE),
            "#focus-registry-layout v1\nshards 100000\nformat bin\n",
        )
        .unwrap();
        let err = crate::Registry::open(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("shard count 100000"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
