//! Registry layout: flat vs hash-sharded directories, text vs binary
//! artifacts.
//!
//! A classic (pre-PR-8) registry is one flat directory — manifest plus
//! artifact files — which is fine for dozens of snapshots and wrong for
//! 10⁴–10⁵ of them: every `add` appends to one manifest and every file
//! lands in one directory whose lookup and fsync costs grow with the
//! whole population. A *sharded* registry splits the namespace by a hash
//! of the snapshot name into `shard-NNN/` subdirectories, each with its
//! own append-only manifest, so directory size and manifest length scale
//! with `N / shards`.
//!
//! The layout is fixed at creation time and recorded in a root index
//! file, `registry.layout`:
//!
//! ```text
//! #focus-registry-layout v1
//! shards <n>            0 = flat (no shard directories)
//! format <text|bin>
//! ```
//!
//! written with the same temp-file + fsync + rename discipline as every
//! other registry file. **No layout file means the classic flat/text
//! layout**, so every registry written by earlier releases opens
//! unchanged and byte-for-byte golden files stay golden.

use std::io::Write;
use std::path::Path;

/// Name of the root index file.
pub(crate) const LAYOUT_FILE: &str = "registry.layout";
const LAYOUT_HEADER: &str = "#focus-registry-layout v1";
/// Most hash shards a layout may have: shard directories are named
/// `shard-NNN`, with three digits.
pub(crate) const MAX_SHARDS: u32 = 1000;

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Which artifact format a registry persists snapshots in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StorageFormat {
    /// The plain-text golden/interchange formats (`focus_data::io`,
    /// `focus_core::persist`) — the default, and the only format earlier
    /// releases wrote.
    #[default]
    Text,
    /// The binary columnar format of [`crate::binfmt`], read zero-copy
    /// via [`crate::binfmt::MappedBytes`] where available.
    Binary,
}

impl StorageFormat {
    /// The layout-file/CLI spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            StorageFormat::Text => "text",
            StorageFormat::Binary => "bin",
        }
    }

    /// Parses a layout-file/CLI spelling.
    pub fn parse(s: &str) -> Option<StorageFormat> {
        match s {
            "text" => Some(StorageFormat::Text),
            "bin" | "binary" => Some(StorageFormat::Binary),
            _ => None,
        }
    }
}

impl std::fmt::Display for StorageFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A registry's on-disk layout: how many hash shards (0 = flat) and
/// which artifact format. Chosen at creation time; immutable afterwards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegistryLayout {
    /// Number of hash shards; 0 keeps everything in the root directory.
    pub shards: u32,
    /// Artifact format for datasets and models.
    pub format: StorageFormat,
}

impl RegistryLayout {
    /// The classic layout: flat directory, plain-text artifacts.
    pub fn flat_text() -> RegistryLayout {
        RegistryLayout::default()
    }

    /// True when this is the classic layout that needs no layout file.
    pub fn is_classic(&self) -> bool {
        *self == RegistryLayout::flat_text()
    }

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

    /// Rejects a shard count above [`MAX_SHARDS`] with an error of `kind`
    /// that names the count.
    pub(crate) fn check_shards(&self, kind: std::io::ErrorKind) -> std::io::Result<()> {
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

    /// Reads `root`'s layout file; `Ok(None)` when absent (classic
    /// layout), an error only for a present-but-malformed file.
    pub(crate) fn read(root: &Path) -> std::io::Result<Option<RegistryLayout>> {
        let path = root.join(LAYOUT_FILE);
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e),
        };
        let mut lines = text.lines();
        if lines.next() != Some(LAYOUT_HEADER) {
            return Err(bad("missing registry layout header"));
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
                            .map_err(|e| bad(&format!("bad shard count: {e}")))?,
                    );
                }
                Some(("format", v)) => {
                    format = Some(
                        StorageFormat::parse(v.trim())
                            .ok_or_else(|| bad(&format!("unknown storage format {v:?}")))?,
                    );
                }
                _ => return Err(bad(&format!("malformed layout line {line:?}"))),
            }
        }
        let layout = RegistryLayout {
            shards: shards.ok_or_else(|| bad("layout file missing shards line"))?,
            format: format.ok_or_else(|| bad("layout file missing format line"))?,
        };
        layout.check_shards(std::io::ErrorKind::InvalidData)?;
        Ok(Some(layout))
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
        for fmt in [StorageFormat::Text, StorageFormat::Binary] {
            assert_eq!(StorageFormat::parse(fmt.as_str()), Some(fmt));
            assert_eq!(format!("{fmt}"), fmt.as_str());
        }
        assert_eq!(StorageFormat::parse("binary"), Some(StorageFormat::Binary));
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
        assert_eq!(RegistryLayout::flat_text().shard_of("snap-1"), None);
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
        assert_eq!(RegistryLayout::read(&dir).unwrap(), Some(layout));

        let missing = dir.join("nope");
        assert_eq!(RegistryLayout::read(&missing).unwrap(), None);

        for garbage in [
            "not a layout\n",
            "#focus-registry-layout v1\nshards x\nformat text\n",
            "#focus-registry-layout v1\nshards 4\nformat carrier-pigeon\n",
            "#focus-registry-layout v1\nshards 4\n",
            "#focus-registry-layout v1\nwat\n",
        ] {
            std::fs::write(dir.join(LAYOUT_FILE), garbage).unwrap();
            assert!(RegistryLayout::read(&dir).is_err(), "{garbage:?}");
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
