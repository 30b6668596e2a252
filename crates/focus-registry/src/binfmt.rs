//! The binary columnar snapshot format and its zero-copy reader.
//!
//! The plain-text artifact formats stay the golden/interchange tier —
//! diff-friendly, greppable, stable. This module is the *production*
//! tier underneath them: a versioned binary container that decodes with
//! bulk `memcpy`-style column reads instead of per-token float parsing,
//! so `DeviationMatrix` scans stop paying parse cost on every load.
//!
//! ## Container layout
//!
//! ```text
//! magic "FCSB" | version u16 | payload-kind u16          (8-byte header)
//! section*:  tag [u8;4] | payload-len u64 | payload | checksum u64
//! ```
//!
//! Everything is little-endian. Each payload kind (transactions, tables,
//! the three model kinds) writes a fixed sequence of tagged sections;
//! numeric columns are stored as raw `u64`/`u32`/`f64-bit` words. Every
//! section carries a checksum of its payload (FNV-1a folded over 64-bit
//! words plus the length — `checksum64`), so corruption —
//! a flipped bit, a truncated write, a foreign file — always surfaces as
//! a **named [`BinError`]**, never as a silent wrong read. Decoded
//! structures pass through the same validation the text readers perform
//! (ranges, arities, counts), so a checksum-colliding forgery still
//! cannot smuggle out-of-contract data into the engine.
//!
//! ## Reading
//!
//! Decoders take `&[u8]`, so they run identically over an owned buffer
//! and over [`MappedBytes`] — the memory-mapped, zero-copy view used by
//! the registry's load seam when the `mmap` feature (default-on) is
//! active on a 64-bit unix target, with a read-to-`Vec` fallback
//! everywhere else. Either way the decoded structs are owned, so results
//! are bit-identical to text-loaded data by construction of the same
//! in-memory types.

use focus_core::data::{AttrType, LabeledTable, Schema, Table, TransactionSet, Value};
use focus_core::model::{ClusterModel, DtModel, LitsModel};
use focus_core::persist::check_cluster_model_persistable;
use focus_core::region::{AttrConstraint, BoxRegion, CatMask, Itemset};
use focus_core::vertical::VerticalIndex;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// File magic: "FCSB" (FoCuS Binary).
const MAGIC: [u8; 4] = *b"FCSB";
/// Container format version this build writes and reads.
const VERSION: u16 = 1;

/// Payload kind codes (the header's second `u16`).
const KIND_TXNS: u16 = 1;
const KIND_TABLE: u16 = 2;
const KIND_LTBL: u16 = 3;
const KIND_LITS: u16 = 4;
const KIND_DT: u16 = 5;
const KIND_CLUSTER: u16 = 6;

fn kind_name(kind: u16) -> &'static str {
    match kind {
        KIND_TXNS => "transactions",
        KIND_TABLE => "table",
        KIND_LTBL => "labeled-table",
        KIND_LITS => "lits-model",
        KIND_DT => "dt-model",
        KIND_CLUSTER => "cluster-model",
        _ => "unknown",
    }
}

/// Every way a binary snapshot can fail to decode, by name. Converted to
/// `io::ErrorKind::InvalidData` at the registry seam, with this error as
/// the source so the section name survives into the message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinError {
    /// The file does not start with the `FCSB` magic.
    BadMagic,
    /// The container version is newer than this build understands.
    BadVersion(u16),
    /// The file holds a different payload kind than the caller asked for
    /// (e.g. a table where transactions were expected).
    WrongKind {
        /// The kind code the caller expected.
        expected: u16,
        /// The kind code found in the header.
        found: u16,
    },
    /// The file ends before the named section is complete.
    Truncated(&'static str),
    /// The named section's payload does not match its stored checksum.
    Checksum(&'static str),
    /// A section tag other than the expected one appears where the named
    /// section should be.
    WrongSection {
        /// The section the decoder expected next.
        expected: &'static str,
        /// The four tag bytes actually found.
        found: [u8; 4],
    },
    /// The named section's payload decodes but violates the format's
    /// invariants (bad counts, out-of-range codes, non-CSR offsets, …).
    Malformed {
        /// The section the violation was found in.
        section: &'static str,
        /// What was wrong.
        what: String,
    },
    /// Extra bytes follow the final section.
    TrailingBytes,
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::BadMagic => write!(f, "binary snapshot: bad magic (not an FCSB file)"),
            BinError::BadVersion(v) => {
                write!(
                    f,
                    "binary snapshot: unsupported version {v} (have {VERSION})"
                )
            }
            BinError::WrongKind { expected, found } => write!(
                f,
                "binary snapshot: holds a {} payload, expected {}",
                kind_name(*found),
                kind_name(*expected)
            ),
            BinError::Truncated(section) => {
                write!(f, "binary snapshot: truncated in section {section}")
            }
            BinError::Checksum(section) => {
                write!(f, "binary snapshot: checksum mismatch in section {section}")
            }
            BinError::WrongSection { expected, found } => write!(
                f,
                "binary snapshot: expected section {expected}, found {:?}",
                String::from_utf8_lossy(found)
            ),
            BinError::Malformed { section, what } => {
                write!(f, "binary snapshot: malformed section {section}: {what}")
            }
            BinError::TrailingBytes => {
                write!(f, "binary snapshot: trailing bytes after the final section")
            }
        }
    }
}

impl std::error::Error for BinError {}

impl From<BinError> for io::Error {
    fn from(e: BinError) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, e)
    }
}

/// FNV-1a 64 over `bytes` — used for shard placement of snapshot names.
/// Not cryptographic; the inputs are short, so the byte-serial chain is
/// irrelevant there.
pub(crate) fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The per-section checksum: FNV-1a folded over little-endian 64-bit
/// words (zero-padded tail), with the byte length mixed in last so
/// padding cannot alias. The byte-serial FNV variant's multiply chain
/// is the long pole of large-section decodes; consuming a word per step
/// keeps checksum verification an order of magnitude below the text
/// parsers. Not cryptographic; it guards against torn writes and bit
/// rot, not adversaries.
fn checksum64(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        h ^= u64::from_le_bytes(c.try_into().expect("8 bytes"));
        h = h.wrapping_mul(PRIME);
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 8];
        tail[..rem.len()].copy_from_slice(rem);
        h ^= u64::from_le_bytes(tail);
        h = h.wrapping_mul(PRIME);
    }
    h ^= bytes.len() as u64;
    h.wrapping_mul(PRIME)
}

// ---------------------------------------------------------------------------
// Encoding

/// Accumulates one container: header, then tagged + checksummed sections.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn new(kind: u16) -> Enc {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&kind.to_le_bytes());
        Enc { buf }
    }

    /// Appends one section; `fill` writes the payload.
    fn section(&mut self, tag: &'static str, fill: impl FnOnce(&mut Payload)) {
        debug_assert_eq!(tag.len(), 4, "section tags are exactly four bytes");
        self.buf.extend_from_slice(tag.as_bytes());
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        let start = self.buf.len();
        fill(&mut Payload { buf: &mut self.buf });
        let len = (self.buf.len() - start) as u64;
        self.buf[len_at..len_at + 8].copy_from_slice(&len.to_le_bytes());
        let sum = checksum64(&self.buf[start..]);
        self.buf.extend_from_slice(&sum.to_le_bytes());
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian primitive writes into the current section.
struct Payload<'a> {
    buf: &'a mut Vec<u8>,
}

impl Payload<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

// ---------------------------------------------------------------------------
// Decoding

/// Walks a container's sections in their fixed per-kind order.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn open(bytes: &'a [u8], expected_kind: u16) -> Result<Dec<'a>, BinError> {
        if bytes.len() < 8 {
            if bytes.len() < 4 || bytes[..4] != MAGIC {
                return Err(BinError::BadMagic);
            }
            return Err(BinError::Truncated("header"));
        }
        if bytes[..4] != MAGIC {
            return Err(BinError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != VERSION {
            return Err(BinError::BadVersion(version));
        }
        let kind = u16::from_le_bytes([bytes[6], bytes[7]]);
        if kind != expected_kind {
            return Err(BinError::WrongKind {
                expected: expected_kind,
                found: kind,
            });
        }
        Ok(Dec { buf: bytes, pos: 8 })
    }

    /// Reads the next section, which must carry `tag`; verifies its
    /// checksum and returns a cursor over the payload.
    fn section(&mut self, tag: &'static str) -> Result<Field<'a>, BinError> {
        let rest = &self.buf[self.pos..];
        if rest.len() < 12 {
            return Err(BinError::Truncated(tag));
        }
        if &rest[..4] != tag.as_bytes() {
            return Err(BinError::WrongSection {
                expected: tag,
                found: [rest[0], rest[1], rest[2], rest[3]],
            });
        }
        let len = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        let len: usize = len.try_into().map_err(|_| BinError::Truncated(tag))?;
        let Some(body) = rest.get(12..12 + len) else {
            return Err(BinError::Truncated(tag));
        };
        let Some(sum_bytes) = rest.get(12 + len..12 + len + 8) else {
            return Err(BinError::Truncated(tag));
        };
        let sum = u64::from_le_bytes(sum_bytes.try_into().expect("8 bytes"));
        if checksum64(body) != sum {
            return Err(BinError::Checksum(tag));
        }
        self.pos += 12 + len + 8;
        Ok(Field {
            buf: body,
            pos: 0,
            section: tag,
        })
    }

    fn finish(self) -> Result<(), BinError> {
        if self.pos != self.buf.len() {
            return Err(BinError::TrailingBytes);
        }
        Ok(())
    }
}

/// Little-endian primitive reads out of one section's payload.
struct Field<'a> {
    buf: &'a [u8],
    pos: usize,
    section: &'static str,
}

impl<'a> Field<'a> {
    fn short(&self) -> BinError {
        BinError::Malformed {
            section: self.section,
            what: "payload shorter than its fields".to_string(),
        }
    }

    fn bad(&self, what: impl Into<String>) -> BinError {
        BinError::Malformed {
            section: self.section,
            what: what.into(),
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], BinError> {
        let end = self.pos.checked_add(n).ok_or_else(|| self.short())?;
        let out = self.buf.get(self.pos..end).ok_or_else(|| self.short())?;
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, BinError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, BinError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, BinError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, BinError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A `u64` that must fit a `usize` count.
    fn count(&mut self) -> Result<usize, BinError> {
        let v = self.u64()?;
        v.try_into()
            .map_err(|_| self.bad(format!("count {v} exceeds the address space")))
    }

    /// Remaining payload must be exactly `n` `u64` words; returns them.
    fn u64_column(&mut self, n: usize) -> Result<Vec<u64>, BinError> {
        let bytes = n
            .checked_mul(8)
            .ok_or_else(|| self.bad("column size overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    /// Reads `n` `u32` words.
    fn u32_column(&mut self, n: usize) -> Result<Vec<u32>, BinError> {
        let bytes = n
            .checked_mul(4)
            .ok_or_else(|| self.bad("column size overflows"))?;
        let raw = self.take(bytes)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().expect("4")))
            .collect())
    }

    /// Reads `n` `f64` values (stored as raw bit words, so every float —
    /// ±inf, NaN payloads, signed zero — round-trips bit-exactly).
    fn f64_column(&mut self, n: usize) -> Result<Vec<f64>, BinError> {
        Ok(self
            .u64_column(n)?
            .into_iter()
            .map(f64::from_bits)
            .collect())
    }

    /// The payload must be fully consumed.
    fn done(self) -> Result<(), BinError> {
        if self.pos != self.buf.len() {
            return Err(BinError::Malformed {
                section: self.section,
                what: "payload longer than its fields".to_string(),
            });
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Transactions

/// Encodes a transaction set (sections `HEAD`, `OFFS`, `ITEM`).
pub fn encode_transactions(data: &TransactionSet) -> Vec<u8> {
    let mut enc = Enc::new(KIND_TXNS);
    let n = data.len();
    let total: usize = data.iter().map(<[u32]>::len).sum();
    enc.section("HEAD", |p| {
        p.u32(data.n_items());
        p.u64(n as u64);
        p.u64(total as u64);
    });
    enc.section("OFFS", |p| {
        let mut off = 0u64;
        p.u64(0);
        for txn in data.iter() {
            off += txn.len() as u64;
            p.u64(off);
        }
    });
    enc.section("ITEM", |p| {
        for txn in data.iter() {
            for &it in txn {
                p.u32(it);
            }
        }
    });
    enc.finish()
}

/// Decodes [`encode_transactions`] output, re-validating the CSR
/// invariants (so a checksum-colliding corruption still cannot produce an
/// out-of-contract `TransactionSet`).
pub fn decode_transactions(bytes: &[u8]) -> Result<TransactionSet, BinError> {
    let (n_items, offsets, items) = decode_transactions_parts(bytes)?;
    TransactionSet::from_parts(n_items, offsets, items).map_err(|what| BinError::Malformed {
        section: "ITEM",
        what,
    })
}

/// Decodes a transactions container straight into a [`VerticalIndex`]:
/// the columnar words go bytes → tid bitsets in one pass, with the same
/// section walk, checksum verification and CSR validation as
/// [`decode_transactions`] but no intermediate `TransactionSet`. The
/// resulting index counts bit-identically to
/// `VerticalIndex::build(&decode_transactions(bytes)?)`.
pub fn decode_transactions_to_index(bytes: &[u8]) -> Result<VerticalIndex, BinError> {
    let (n_items, offsets, items) = decode_transactions_parts(bytes)?;
    VerticalIndex::from_csr(n_items, &offsets, &items).map_err(|e| BinError::Malformed {
        section: "ITEM",
        what: e.to_string(),
    })
}

/// The shared section walk behind both transaction decoders: verifies the
/// container framing and returns the raw `(n_items, offsets, items)` CSR
/// columns. CSR *semantic* validation (monotone offsets, in-range sorted
/// items) is left to the caller's constructor, which names violations in
/// the `ITEM` section.
fn decode_transactions_parts(bytes: &[u8]) -> Result<(u32, Vec<usize>, Vec<u32>), BinError> {
    let mut dec = Dec::open(bytes, KIND_TXNS)?;
    let mut head = dec.section("HEAD")?;
    let n_items = head.u32()?;
    let n_txns = head.count()?;
    let total = head.count()?;
    head.done()?;

    let mut offs = dec.section("OFFS")?;
    let n_offsets = n_txns.checked_add(1).ok_or_else(|| BinError::Malformed {
        section: "HEAD",
        what: "transaction count overflows".to_string(),
    })?;
    let raw_offsets = offs.u64_column(n_offsets)?;
    offs.done()?;
    let offsets: Vec<usize> = raw_offsets
        .iter()
        .map(|&o| {
            o.try_into().map_err(|_| BinError::Malformed {
                section: "OFFS",
                what: format!("offset {o} exceeds the address space"),
            })
        })
        .collect::<Result<_, _>>()?;

    let mut item = dec.section("ITEM")?;
    let items = item.u32_column(total)?;
    item.done()?;
    dec.finish()?;

    Ok((n_items, offsets, items))
}

// ---------------------------------------------------------------------------
// Schema + tables

fn put_schema(p: &mut Payload<'_>, schema: &Schema) {
    p.u32(schema.len() as u32);
    for a in schema.attrs() {
        match &a.ty {
            AttrType::Numeric => {
                p.u8(0);
                p.u32(0);
            }
            AttrType::Categorical { cardinality } => {
                p.u8(1);
                p.u32(*cardinality);
            }
        }
        p.u32(a.name.len() as u32);
        p.bytes(a.name.as_bytes());
    }
}

fn get_schema(f: &mut Field<'_>) -> Result<Arc<Schema>, BinError> {
    let n = f.u32()? as usize;
    let mut attrs = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        let tag = f.u8()?;
        let card = f.u32()?;
        let name_len = f.u32()? as usize;
        let name = std::str::from_utf8(f.take(name_len)?)
            .map_err(|_| f.bad("attribute name is not UTF-8"))?
            .to_string();
        attrs.push(match tag {
            0 => Schema::numeric(&name),
            1 => Schema::categorical(&name, card),
            other => return Err(f.bad(format!("unknown attribute type tag {other}"))),
        });
    }
    Ok(Arc::new(Schema::new(attrs)))
}

/// Writes one table's values column-major: numeric columns as raw `f64`
/// bit words, categorical columns as `u32` codes.
fn put_columns(p: &mut Payload<'_>, data: &Table) {
    let schema = data.schema();
    for (j, a) in schema.attrs().iter().enumerate() {
        match a.ty {
            AttrType::Numeric => {
                for i in 0..data.len() {
                    p.f64(data.row(i)[j].as_num());
                }
            }
            AttrType::Categorical { .. } => {
                for i in 0..data.len() {
                    p.u32(data.row(i)[j].as_cat());
                }
            }
        }
    }
}

fn get_columns(f: &mut Field<'_>, schema: &Arc<Schema>, n_rows: usize) -> Result<Table, BinError> {
    let width = schema.len();
    let total = n_rows
        .checked_mul(width)
        .ok_or_else(|| f.bad("rows × width overflows"))?;
    // Fill row-major storage column by column; Value::Num(0.0) is a
    // placeholder every slot overwrites.
    let mut values = vec![Value::Num(0.0); total];
    for (j, a) in schema.attrs().iter().enumerate() {
        match a.ty {
            AttrType::Numeric => {
                for (i, v) in f.f64_column(n_rows)?.into_iter().enumerate() {
                    values[i * width + j] = Value::Num(v);
                }
            }
            AttrType::Categorical { .. } => {
                for (i, v) in f.u32_column(n_rows)?.into_iter().enumerate() {
                    values[i * width + j] = Value::Cat(v);
                }
            }
        }
    }
    Table::from_values(Arc::clone(schema), values, n_rows).map_err(|what| BinError::Malformed {
        section: "COLS",
        what,
    })
}

/// Encodes a plain table (sections `SCHM`, `HEAD`, `COLS`).
pub fn encode_table(data: &Table) -> Vec<u8> {
    let mut enc = Enc::new(KIND_TABLE);
    enc.section("SCHM", |p| put_schema(p, data.schema()));
    enc.section("HEAD", |p| p.u64(data.len() as u64));
    enc.section("COLS", |p| put_columns(p, data));
    enc.finish()
}

/// Decodes [`encode_table`] output.
pub fn decode_table(bytes: &[u8]) -> Result<Table, BinError> {
    let mut dec = Dec::open(bytes, KIND_TABLE)?;
    let mut schm = dec.section("SCHM")?;
    let schema = get_schema(&mut schm)?;
    schm.done()?;
    let mut head = dec.section("HEAD")?;
    let n_rows = head.count()?;
    head.done()?;
    let mut cols = dec.section("COLS")?;
    let table = get_columns(&mut cols, &schema, n_rows)?;
    cols.done()?;
    dec.finish()?;
    Ok(table)
}

/// Encodes a labelled table (sections `SCHM`, `HEAD`, `COLS`, `LABL`).
pub fn encode_labeled_table(data: &LabeledTable) -> Vec<u8> {
    let mut enc = Enc::new(KIND_LTBL);
    enc.section("SCHM", |p| put_schema(p, data.table.schema()));
    enc.section("HEAD", |p| {
        p.u64(data.len() as u64);
        p.u32(data.n_classes);
    });
    enc.section("COLS", |p| put_columns(p, &data.table));
    enc.section("LABL", |p| {
        for &l in &data.labels {
            p.u32(l);
        }
    });
    enc.finish()
}

/// Decodes [`encode_labeled_table`] output.
pub fn decode_labeled_table(bytes: &[u8]) -> Result<LabeledTable, BinError> {
    let mut dec = Dec::open(bytes, KIND_LTBL)?;
    let mut schm = dec.section("SCHM")?;
    let schema = get_schema(&mut schm)?;
    schm.done()?;
    let mut head = dec.section("HEAD")?;
    let n_rows = head.count()?;
    let n_classes = head.u32()?;
    head.done()?;
    if n_classes == 0 {
        return Err(BinError::Malformed {
            section: "HEAD",
            what: "labelled table needs at least one class".to_string(),
        });
    }
    let mut cols = dec.section("COLS")?;
    let table = get_columns(&mut cols, &schema, n_rows)?;
    cols.done()?;
    let mut labl = dec.section("LABL")?;
    let labels = labl.u32_column(n_rows)?;
    labl.done()?;
    dec.finish()?;
    if let Some(&bad) = labels.iter().find(|&&l| l >= n_classes) {
        return Err(BinError::Malformed {
            section: "LABL",
            what: format!("label {bad} out of range 0..{n_classes}"),
        });
    }
    Ok(LabeledTable {
        table,
        labels,
        n_classes,
    })
}

// ---------------------------------------------------------------------------
// Models

/// Encodes a lits-model (sections `HEAD`, `OFFS`, `ITEM`, `SUPP`).
pub fn encode_lits_model(model: &LitsModel) -> Vec<u8> {
    let mut enc = Enc::new(KIND_LITS);
    let total: usize = model.itemsets().iter().map(Itemset::len).sum();
    enc.section("HEAD", |p| {
        p.f64(model.minsup());
        p.u64(model.n_transactions());
        p.u64(model.len() as u64);
        p.u64(total as u64);
    });
    enc.section("OFFS", |p| {
        let mut off = 0u64;
        p.u64(0);
        for s in model.itemsets() {
            off += s.len() as u64;
            p.u64(off);
        }
    });
    enc.section("ITEM", |p| {
        for s in model.itemsets() {
            for &it in s.items() {
                p.u32(it);
            }
        }
    });
    enc.section("SUPP", |p| {
        for &sup in model.supports() {
            p.f64(sup);
        }
    });
    enc.finish()
}

/// Decodes [`encode_lits_model`] output.
pub fn decode_lits_model(bytes: &[u8]) -> Result<LitsModel, BinError> {
    let mut dec = Dec::open(bytes, KIND_LITS)?;
    let mut head = dec.section("HEAD")?;
    let minsup = head.f64()?;
    let n_txns = head.u64()?;
    let n_sets = head.count()?;
    let total = head.count()?;
    head.done()?;

    let mut offs = dec.section("OFFS")?;
    let n_offsets = n_sets.checked_add(1).ok_or_else(|| BinError::Malformed {
        section: "HEAD",
        what: "itemset count overflows".to_string(),
    })?;
    let offsets = offs.u64_column(n_offsets)?;
    offs.done()?;
    let mut item = dec.section("ITEM")?;
    let items = item.u32_column(total)?;
    item.done()?;
    let mut supp = dec.section("SUPP")?;
    let supports = supp.f64_column(n_sets)?;
    supp.done()?;
    dec.finish()?;

    if offsets.first() != Some(&0) || offsets.last() != Some(&(total as u64)) {
        return Err(BinError::Malformed {
            section: "OFFS",
            what: "offsets do not cover the item column".to_string(),
        });
    }
    let mut itemsets = Vec::with_capacity(n_sets);
    for (k, w) in offsets.windows(2).enumerate() {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        if hi < lo || hi > items.len() {
            return Err(BinError::Malformed {
                section: "OFFS",
                what: format!("itemset {k} has a decreasing or out-of-range offset"),
            });
        }
        let slice = &items[lo..hi];
        if slice.windows(2).any(|p| p[1] <= p[0]) {
            return Err(BinError::Malformed {
                section: "ITEM",
                what: format!("itemset {k} is not strictly increasing"),
            });
        }
        itemsets.push(Itemset::from_slice(slice));
    }
    Ok(LitsModel::new(itemsets, supports, minsup, n_txns))
}

fn put_regions(p: &mut Payload<'_>, regions: &[BoxRegion]) {
    p.u32(regions.len() as u32);
    for r in regions {
        p.u32(r.constraints.len() as u32);
        for c in &r.constraints {
            match c {
                AttrConstraint::Interval { lo, hi } => {
                    p.u8(0);
                    p.f64(*lo);
                    p.f64(*hi);
                }
                AttrConstraint::Cats(m) => {
                    p.u8(1);
                    p.u32(m.cardinality());
                    p.u32(m.count());
                    for code in m.iter() {
                        p.u32(code);
                    }
                }
            }
        }
    }
}

fn get_regions(
    f: &mut Field<'_>,
    schema: &Schema,
    expected: usize,
) -> Result<Vec<BoxRegion>, BinError> {
    let n = f.u32()? as usize;
    if n != expected {
        return Err(f.bad(format!("region count {n} does not match header {expected}")));
    }
    let mut regions = Vec::with_capacity(n);
    for k in 0..n {
        let n_cons = f.u32()? as usize;
        if n_cons != schema.len() {
            return Err(f.bad(format!(
                "region {k}: constraint count {n_cons} does not match schema ({})",
                schema.len()
            )));
        }
        let mut constraints = Vec::with_capacity(n_cons);
        for _ in 0..n_cons {
            match f.u8()? {
                0 => {
                    let lo = f.f64()?;
                    let hi = f.f64()?;
                    constraints.push(AttrConstraint::Interval { lo, hi });
                }
                1 => {
                    let card = f.u32()?;
                    let n_codes = f.u32()? as usize;
                    let codes = f.u32_column(n_codes)?;
                    if let Some(&code) = codes.iter().find(|&&c| c >= card) {
                        return Err(f.bad(format!("category code {code} out of range 0..{card}")));
                    }
                    if codes.windows(2).any(|p| p[1] <= p[0]) {
                        return Err(f.bad("category codes must be strictly increasing"));
                    }
                    constraints.push(AttrConstraint::Cats(CatMask::of(card, &codes)));
                }
                other => return Err(f.bad(format!("unknown constraint tag {other}"))),
            }
        }
        regions.push(BoxRegion {
            constraints,
            class: None,
        });
    }
    Ok(regions)
}

/// Encodes a dt-model with its schema (sections `HEAD`, `SCHM`, `RGNS`,
/// `MEAS`). Like the text format, the region class slot is not recorded
/// (dt leaves are class-free by construction).
pub fn encode_dt_model(model: &DtModel, schema: &Schema) -> Vec<u8> {
    let mut enc = Enc::new(KIND_DT);
    enc.section("HEAD", |p| {
        p.u32(model.n_classes());
        p.u64(model.n_rows());
        p.u64(model.leaves().len() as u64);
    });
    enc.section("SCHM", |p| put_schema(p, schema));
    enc.section("RGNS", |p| put_regions(p, model.leaves()));
    enc.section("MEAS", |p| {
        for &m in model.measures() {
            p.f64(m);
        }
    });
    enc.finish()
}

/// Decodes [`encode_dt_model`] output; returns the model and its schema.
pub fn decode_dt_model(bytes: &[u8]) -> Result<(DtModel, Arc<Schema>), BinError> {
    let mut dec = Dec::open(bytes, KIND_DT)?;
    let mut head = dec.section("HEAD")?;
    let n_classes = head.u32()?;
    let n_rows = head.u64()?;
    let n_leaves = head.count()?;
    head.done()?;
    if n_classes == 0 {
        return Err(BinError::Malformed {
            section: "HEAD",
            what: "dt-model needs at least one class".to_string(),
        });
    }
    let mut schm = dec.section("SCHM")?;
    let schema = get_schema(&mut schm)?;
    schm.done()?;
    let mut rgns = dec.section("RGNS")?;
    let leaves = get_regions(&mut rgns, &schema, n_leaves)?;
    rgns.done()?;
    let n_meas = n_leaves
        .checked_mul(n_classes as usize)
        .ok_or_else(|| BinError::Malformed {
            section: "MEAS",
            what: "leaves × classes overflows".to_string(),
        })?;
    let mut meas = dec.section("MEAS")?;
    let measures = meas.f64_column(n_meas)?;
    meas.done()?;
    dec.finish()?;
    Ok((DtModel::new(leaves, n_classes, measures, n_rows), schema))
}

/// Encodes a cluster-model with its schema (sections `HEAD`, `SCHM`,
/// `RGNS`, `MEAS`). Rejects class-carrying regions with `InvalidInput`,
/// exactly like the text writer.
pub fn encode_cluster_model(model: &ClusterModel, schema: &Schema) -> io::Result<Vec<u8>> {
    check_cluster_model_persistable(model)?;
    let mut enc = Enc::new(KIND_CLUSTER);
    enc.section("HEAD", |p| {
        p.u64(model.n_rows());
        p.u64(model.clusters().len() as u64);
    });
    enc.section("SCHM", |p| put_schema(p, schema));
    enc.section("RGNS", |p| put_regions(p, model.clusters()));
    enc.section("MEAS", |p| {
        for &m in model.measures() {
            p.f64(m);
        }
    });
    Ok(enc.finish())
}

/// Decodes [`encode_cluster_model`] output; returns the model and its
/// schema.
pub fn decode_cluster_model(bytes: &[u8]) -> Result<(ClusterModel, Arc<Schema>), BinError> {
    let mut dec = Dec::open(bytes, KIND_CLUSTER)?;
    let mut head = dec.section("HEAD")?;
    let n_rows = head.u64()?;
    let n_clusters = head.count()?;
    head.done()?;
    let mut schm = dec.section("SCHM")?;
    let schema = get_schema(&mut schm)?;
    schm.done()?;
    let mut rgns = dec.section("RGNS")?;
    let clusters = get_regions(&mut rgns, &schema, n_clusters)?;
    rgns.done()?;
    let mut meas = dec.section("MEAS")?;
    let measures = meas.f64_column(n_clusters)?;
    meas.done()?;
    dec.finish()?;
    Ok((ClusterModel::new(clusters, measures, n_rows), schema))
}

// ---------------------------------------------------------------------------
// Memory-mapped reads

/// True when this build actually memory-maps snapshot files; false when
/// [`MappedBytes::open`] falls back to reading into a `Vec`.
pub fn mmap_active() -> bool {
    cfg!(all(unix, target_pointer_width = "64", feature = "mmap"))
}

/// A read-only byte view of a file: memory-mapped where the platform and
/// the `mmap` feature allow it, an owned buffer otherwise. Decoders only
/// see `&[u8]`, so the two paths are interchangeable — and because the
/// decoded structures are owned either way, results are bit-identical to
/// buffered reads by construction.
pub struct MappedBytes(Repr);

enum Repr {
    Owned(Vec<u8>),
    #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
    Mapped(mmap_impl::Map),
}

impl MappedBytes {
    /// Opens `path` for zero-copy reading, falling back to
    /// [`MappedBytes::read_owned`] when mapping is unavailable (non-unix,
    /// 32-bit, the `mmap` feature off, an empty file, or a map failure).
    pub fn open(path: &Path) -> io::Result<MappedBytes> {
        #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
        {
            if let Some(map) = mmap_impl::Map::open(path)? {
                return Ok(MappedBytes(Repr::Mapped(map)));
            }
        }
        Self::read_owned(path)
    }

    /// Reads `path` fully into an owned buffer (never maps).
    pub fn read_owned(path: &Path) -> io::Result<MappedBytes> {
        Ok(MappedBytes(Repr::Owned(std::fs::read(path)?)))
    }
}

impl std::ops::Deref for MappedBytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        match &self.0 {
            Repr::Owned(v) => v,
            #[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
            Repr::Mapped(m) => m.as_slice(),
        }
    }
}

/// The raw `mmap`/`munmap` shim. The workspace forbids new external
/// dependencies, so the two libc symbols are declared directly; the
/// unsafety is confined to this module and the mapping is strictly
/// read-only + private, so no Rust aliasing rule can be violated through
/// it. 64-bit unix only (`off_t` is `i64` there), which the cfg gate
/// guarantees.
#[cfg(all(unix, target_pointer_width = "64", feature = "mmap"))]
#[allow(unsafe_code)]
mod mmap_impl {
    use std::ffi::{c_int, c_void};
    use std::fs::File;
    use std::io;
    use std::os::fd::AsRawFd;
    use std::path::Path;

    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }

    const PROT_READ: c_int = 1;
    const MAP_PRIVATE: c_int = 2;

    /// An owned read-only private mapping, unmapped on drop.
    pub(super) struct Map {
        ptr: *mut c_void,
        len: usize,
    }

    // SAFETY: the mapping is PROT_READ + MAP_PRIVATE and never handed out
    // mutably, so concurrent reads from other threads are safe.
    unsafe impl Send for Map {}
    unsafe impl Sync for Map {}

    impl Map {
        /// Maps `path` read-only. `Ok(None)` means "use the owned-read
        /// fallback" (empty file, or the kernel refused the map).
        pub(super) fn open(path: &Path) -> io::Result<Option<Map>> {
            let file = File::open(path)?;
            let len = file.metadata()?.len();
            if len == 0 {
                return Ok(None);
            }
            let Ok(len) = usize::try_from(len) else {
                return Ok(None);
            };
            // SAFETY: a fresh anonymous-address read-only private mapping
            // of an open fd; the fd may close after mmap returns (the
            // mapping keeps its own reference).
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr.is_null() || ptr as isize == -1 {
                return Ok(None);
            }
            Ok(Some(Map { ptr, len }))
        }

        pub(super) fn as_slice(&self) -> &[u8] {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by
            // self; the borrow cannot outlive the unmap in Drop.
            unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
        }
    }

    impl Drop for Map {
        fn drop(&mut self) {
            // SAFETY: exactly the region mmap returned; mapped once,
            // unmapped once.
            unsafe {
                munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_dataset;
    use focus_core::data::LabeledTable;
    use focus_core::model::induce_dt_measures;
    use focus_core::region::BoxBuilder;

    fn demo_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::categorical("color", 4),
        ]))
    }

    fn demo_labeled() -> LabeledTable {
        let schema = demo_schema();
        let mut d = LabeledTable::new(Arc::clone(&schema), 3);
        for i in 0..50 {
            d.push_row(
                &[Value::Num(i as f64 * 0.5 - 3.0), Value::Cat(i % 4)],
                i % 3,
            );
        }
        d
    }

    fn demo_dt() -> (LabeledTable, DtModel) {
        let d = demo_labeled();
        let schema = Arc::clone(d.table.schema());
        let model = induce_dt_measures(
            vec![
                BoxBuilder::new(&schema).lt("x", 5.0).build(),
                BoxBuilder::new(&schema).ge("x", 5.0).build(),
            ],
            &d,
        );
        (d, model)
    }

    fn demo_cluster() -> (Table, ClusterModel) {
        let d = demo_labeled().table;
        let schema = Arc::clone(d.schema());
        let clusters = vec![
            BoxBuilder::new(&schema)
                .range("x", f64::NEG_INFINITY, 2.5)
                .cats("color", &[0, 3])
                .build(),
            BoxBuilder::new(&schema)
                .range("x", 2.5, f64::INFINITY)
                .cats("color", &[])
                .build(),
        ];
        let model = ClusterModel::new(clusters, vec![0.625, 0.0], d.len() as u64);
        (d, model)
    }

    #[test]
    fn transactions_round_trip() {
        let ts = random_dataset(7, 400, 0.5);
        let bytes = encode_transactions(&ts);
        assert_eq!(decode_transactions(&bytes).unwrap(), ts);
        // Empty set and empty universe both survive.
        let empty = TransactionSet::new(0);
        assert_eq!(
            decode_transactions(&encode_transactions(&empty)).unwrap(),
            empty
        );
    }

    #[test]
    fn decode_to_index_matches_decode_then_build() {
        // The one-pass bytes → bitsets decoder must produce exactly the
        // index a decode-to-TransactionSet-then-build pipeline would.
        for (seed, n, density) in [(7, 400, 0.5), (13, 64, 0.05), (2, 1, 1.0)] {
            let ts = random_dataset(seed, n, density);
            let bytes = encode_transactions(&ts);
            let direct = decode_transactions_to_index(&bytes).unwrap();
            assert_eq!(direct, VerticalIndex::build(&ts));
        }
        let empty = TransactionSet::new(3);
        let direct = decode_transactions_to_index(&encode_transactions(&empty)).unwrap();
        assert_eq!(direct, VerticalIndex::build(&empty));
    }

    #[test]
    fn decode_to_index_names_corruption_like_the_set_decoder() {
        let bytes = encode_transactions(&random_dataset(3, 100, 0.4));
        for (tag, range) in sections_of(&bytes) {
            if range.is_empty() {
                continue;
            }
            let mid = range.start + range.len() / 2;
            let mut corrupt = bytes.clone();
            corrupt[mid] ^= 0x40;
            let err = decode_transactions_to_index(&corrupt).unwrap_err();
            let BinError::Checksum(section) = err else {
                panic!("section {tag}: want a checksum error, got {err}");
            };
            assert_eq!(section, tag, "checksum error must name the section");
            assert_eq!(
                decode_transactions_to_index(&bytes[..mid]).unwrap_err(),
                decode_transactions(&bytes[..mid]).unwrap_err(),
                "both decoders agree on truncation in {tag}"
            );
        }
    }

    #[test]
    fn tables_round_trip() {
        let d = demo_labeled();
        let bytes = encode_labeled_table(&d);
        assert_eq!(decode_labeled_table(&bytes).unwrap(), d);
        let bytes = encode_table(&d.table);
        assert_eq!(decode_table(&bytes).unwrap(), d.table);
        let empty = Table::new(Arc::new(Schema::new(Vec::new())));
        assert_eq!(decode_table(&encode_table(&empty)).unwrap(), empty);
    }

    #[test]
    fn models_round_trip() {
        let model = LitsModel::new(
            vec![
                Itemset::from_slice(&[0]),
                Itemset::from_slice(&[2, 5]),
                Itemset::from_slice(&[1, 2, 9]),
            ],
            vec![0.5, 1.0 / 3.0, 0.125],
            0.01,
            12_345,
        );
        assert_eq!(
            decode_lits_model(&encode_lits_model(&model)).unwrap(),
            model
        );

        let (d, dt) = demo_dt();
        let bytes = encode_dt_model(&dt, d.table.schema());
        let (back, schema) = decode_dt_model(&bytes).unwrap();
        assert_eq!(back, dt);
        assert_eq!(*schema, **d.table.schema());

        let (t, clu) = demo_cluster();
        let bytes = encode_cluster_model(&clu, t.schema()).unwrap();
        let (back, schema) = decode_cluster_model(&bytes).unwrap();
        assert_eq!(back, clu);
        assert_eq!(*schema, **t.schema());
    }

    #[test]
    fn classful_cluster_regions_are_rejected() {
        let (t, clu) = demo_cluster();
        let schema = Arc::clone(t.schema());
        let classful = ClusterModel::new(
            clu.clusters().iter().map(|c| c.with_class(0)).collect(),
            clu.measures().to_vec(),
            clu.n_rows(),
        );
        let err = encode_cluster_model(&classful, &schema).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn wrong_kind_is_named() {
        let ts = random_dataset(1, 20, 0.0);
        let bytes = encode_transactions(&ts);
        let err = decode_table(&bytes).unwrap_err();
        assert_eq!(
            err,
            BinError::WrongKind {
                expected: KIND_TABLE,
                found: KIND_TXNS
            }
        );
        assert!(err.to_string().contains("transactions"), "{err}");
    }

    #[test]
    fn header_corruption_is_named() {
        let bytes = encode_transactions(&random_dataset(1, 20, 0.0));
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert_eq!(decode_transactions(&bad).unwrap_err(), BinError::BadMagic);
        let mut newer = bytes.clone();
        newer[4] = 99;
        assert_eq!(
            decode_transactions(&newer).unwrap_err(),
            BinError::BadVersion(99)
        );
        assert_eq!(decode_transactions(&[]).unwrap_err(), BinError::BadMagic);
        assert_eq!(
            decode_transactions(&bytes[..6]).unwrap_err(),
            BinError::Truncated("header")
        );
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert_eq!(
            decode_transactions(&trailing).unwrap_err(),
            BinError::TrailingBytes
        );
    }

    /// Walks the container framing: returns `(tag, payload_range)` per
    /// section, from the wire bytes alone.
    fn sections_of(bytes: &[u8]) -> Vec<(String, std::ops::Range<usize>)> {
        let mut out = Vec::new();
        let mut pos = 8;
        while pos < bytes.len() {
            let tag = String::from_utf8(bytes[pos..pos + 4].to_vec()).unwrap();
            let len = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().unwrap()) as usize;
            out.push((tag, pos + 12..pos + 12 + len));
            pos += 12 + len + 8;
        }
        out
    }

    /// The corruption sweep of the issue: flip one byte in every
    /// section's payload and assert the *named* checksum error; truncate
    /// inside every section and assert the named truncation error.
    #[test]
    fn corruption_sweep_names_every_section() {
        let (d, dt) = demo_dt();
        let (t, clu) = demo_cluster();
        let lits = LitsModel::new(vec![Itemset::from_slice(&[1, 4])], vec![0.25], 0.1, 1_000);
        let artifacts: Vec<Vec<u8>> = vec![
            encode_transactions(&random_dataset(3, 100, 0.4)),
            encode_table(&t),
            encode_labeled_table(&d),
            encode_lits_model(&lits),
            encode_dt_model(&dt, d.table.schema()),
            encode_cluster_model(&clu, t.schema()).unwrap(),
        ];
        let decode = |bytes: &[u8]| -> Result<(), BinError> {
            // Dispatch on the header kind so one sweep covers all six.
            match u16::from_le_bytes([bytes[6], bytes[7]]) {
                KIND_TXNS => decode_transactions(bytes).map(|_| ()),
                KIND_TABLE => decode_table(bytes).map(|_| ()),
                KIND_LTBL => decode_labeled_table(bytes).map(|_| ()),
                KIND_LITS => decode_lits_model(bytes).map(|_| ()),
                KIND_DT => decode_dt_model(bytes).map(|_| ()),
                KIND_CLUSTER => decode_cluster_model(bytes).map(|_| ()),
                other => panic!("unknown kind {other}"),
            }
        };
        for bytes in &artifacts {
            decode(bytes).unwrap();
            for (tag, range) in sections_of(bytes) {
                if range.is_empty() {
                    continue;
                }
                let mid = range.start + range.len() / 2;
                let mut corrupt = bytes.clone();
                corrupt[mid] ^= 0x40;
                let err = decode(&corrupt).unwrap_err();
                let BinError::Checksum(section) = err else {
                    panic!("section {tag}: want a checksum error, got {err}");
                };
                assert_eq!(section, tag, "checksum error must name the section");
                // Truncating inside the section names it too.
                let err = decode(&bytes[..mid]).unwrap_err();
                assert_eq!(err, BinError::Truncated(section), "truncate in {tag}");
            }
        }
    }

    #[test]
    fn mapped_bytes_match_owned_reads() {
        let dir = std::env::temp_dir().join(format!("focus-binfmt-map-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("snap.txns.bin");
        let ts = random_dataset(11, 300, 0.8);
        std::fs::write(&path, encode_transactions(&ts)).unwrap();
        let mapped = MappedBytes::open(&path).unwrap();
        let owned = MappedBytes::read_owned(&path).unwrap();
        assert_eq!(&*mapped, &*owned, "byte views must agree");
        assert_eq!(decode_transactions(&mapped).unwrap(), ts);
        assert_eq!(decode_transactions(&owned).unwrap(), ts);
        // Empty files take the owned fallback and still behave.
        let empty = dir.join("empty.bin");
        std::fs::write(&empty, b"").unwrap();
        assert!(MappedBytes::open(&empty).unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
