//! Dataset persistence: plain-text readers and writers for transaction
//! sets and labelled tables.
//!
//! Formats are deliberately simple and diff-friendly. Lines end in `\n`
//! or `\r\n` (the last one may end in neither) and must be UTF-8.
//!
//! * **Transactions** — a header line `#items <n>`, then one transaction
//!   per line: item ids below `n`, each a `u32` as `u32::from_str` reads
//!   it (so `+7` and `007` are ids too), separated by runs of Unicode
//!   whitespace. Ids may come in any order and repeat; each transaction is
//!   stored sorted and deduplicated. Empty lines are empty transactions
//!   (they matter: selectivities divide by the transaction count).
//! * **Labelled tables** — a header block of one line per attribute
//!   (`#num <name>` / `#cat <name> <cardinality>`) and one `#classes <k>`
//!   line (`k ≥ 1`), then one row per line: comma-separated values with
//!   the class label last. Numeric values are finite `f64`s, categorical
//!   values are codes below their cardinality and labels codes below `k`.
//!   Blank lines are skipped. The header block ends at the first data row:
//!   a `#num`, `#cat` or `#classes` line after it is an error.
//!
//! Both readers stream: besides the result they hold one line at a time,
//! never the whole file. Transaction lines of ASCII digits, spaces and
//! tabs are parsed byte by byte straight into the CSR columns; any other
//! line takes the general `split_whitespace` path, so both paths accept
//! the same language and report the same errors. Every malformed input is
//! an [`InvalidData`](std::io::ErrorKind::InvalidData) error, never a
//! panic. Bad or out-of-range ids, every table row error, late headers
//! and invalid UTF-8 name their 1-based line (`line 3: …`).
//!
//! Both formats round-trip exactly (floats via Rust's shortest-round-trip
//! formatting).

use focus_core::data::{AttrType, Attribute, LabeledTable, Schema, TransactionSet, Value};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::sync::Arc;

/// Writes a transaction set to `w`.
pub fn write_transactions<W: Write>(data: &TransactionSet, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(w, "#items {}", data.n_items())?;
    for txn in data.iter() {
        let mut first = true;
        for &item in txn {
            if !first {
                write!(w, " ")?;
            }
            write!(w, "{item}")?;
            first = false;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads a transaction set written by [`write_transactions`].
pub fn read_transactions<R: Read>(r: R) -> std::io::Result<TransactionSet> {
    let mut r = BufReader::new(r);
    let mut line = Vec::new();
    if !next_line(&mut r, &mut line)? {
        return Err(bad("empty transaction file"));
    }
    let n_items: u32 = utf8(&line, 1)?
        .strip_prefix("#items ")
        .ok_or_else(|| bad("missing #items header"))?
        .trim()
        .parse()
        .map_err(|e| bad(&format!("bad #items value: {e}")))?;
    let (mut offsets, mut items) = (vec![0], Vec::new());
    let mut lineno = 1;
    while next_line(&mut r, &mut line)? {
        lineno += 1;
        let start = items.len();
        if !parse_plain_ids(&line, &mut items) {
            items.truncate(start);
            for t in utf8(&line, lineno)?.split_whitespace() {
                items.push(
                    t.parse()
                        .map_err(|e| bad(&format!("line {lineno}: bad item {t:?}: {e}")))?,
                );
            }
        }
        if let Some(&item) = items[start..].iter().find(|&&i| i >= n_items) {
            return Err(bad(&format!(
                "line {lineno}: item {item} out of range 0..{n_items}"
            )));
        }
        if items[start..].windows(2).any(|p| p[1] <= p[0]) {
            let mut txn = items.split_off(start);
            txn.sort_unstable();
            txn.dedup();
            items.append(&mut txn);
        }
        offsets.push(items.len());
    }
    TransactionSet::from_parts(n_items, offsets, items).map_err(|e| bad(&e))
}

/// Appends the ids of a line made only of ASCII digits, spaces and tabs to
/// `items`. Returns `false`, leaving `items` partly extended, on any other
/// byte or on an id past `u32::MAX`: the caller re-parses such a line on
/// the general path, which accepts or names what this one does not.
fn parse_plain_ids(line: &[u8], items: &mut Vec<u32>) -> bool {
    // Accumulating in a `u64` and bounding it after each digit is faster
    // than `u32` checked arithmetic; the bound makes each cast lossless.
    let (mut id, mut in_id) = (0u64, false);
    for &b in line {
        if b.is_ascii_digit() {
            id = id * 10 + u64::from(b - b'0');
            if id > u64::from(u32::MAX) {
                return false;
            }
            in_id = true;
        } else if b == b' ' || b == b'\t' {
            if in_id {
                items.push(id as u32);
                (id, in_id) = (0, false);
            }
        } else {
            return false;
        }
    }
    if in_id {
        items.push(id as u32);
    }
    true
}

/// Writes a labelled table (schema header + rows) to `w`.
pub fn write_labeled_table<W: Write>(data: &LabeledTable, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    let schema = data.table.schema();
    for a in schema.attrs() {
        match &a.ty {
            AttrType::Numeric => writeln!(w, "#num {}", a.name)?,
            AttrType::Categorical { cardinality } => {
                writeln!(w, "#cat {} {}", a.name, cardinality)?
            }
        }
    }
    writeln!(w, "#classes {}", data.n_classes)?;
    for (row, label) in data.rows() {
        for v in row {
            match v {
                Value::Num(x) => write!(w, "{x},")?,
                Value::Cat(c) => write!(w, "{c},")?,
            }
        }
        writeln!(w, "{label}")?;
    }
    w.flush()
}

/// Reads a labelled table written by [`write_labeled_table`].
pub fn read_labeled_table<R: Read>(r: R) -> std::io::Result<LabeledTable> {
    let mut r = BufReader::new(r);
    let mut line = Vec::new();
    let mut attrs = Vec::new();
    let mut n_classes: Option<u32> = None;
    // Created at the first data row, which ends the header block.
    let mut out: Option<LabeledTable> = None;
    let mut row_buf: Vec<Value> = Vec::new();
    let mut lineno = 0;
    while next_line(&mut r, &mut line)? {
        lineno += 1;
        let line = utf8(&line, lineno)?;
        if let Some(header) = ["#num ", "#cat ", "#classes "]
            .into_iter()
            .find(|h| line.starts_with(h))
        {
            if out.is_some() {
                return Err(bad(&format!(
                    "line {lineno}: {} header after the first data row",
                    header.trim_end()
                )));
            }
            read_header_line(line, &mut attrs, &mut n_classes)?;
        } else if !line.trim().is_empty() {
            if out.is_none() {
                out = Some(empty_table(std::mem::take(&mut attrs), n_classes)?);
            }
            if let Some(out) = &mut out {
                read_row(line, lineno, out, &mut row_buf)?;
            }
        }
    }
    match out {
        Some(out) => Ok(out),
        None => empty_table(attrs, n_classes),
    }
}

/// Applies one `#num`, `#cat` or `#classes` line to the header block.
fn read_header_line(
    line: &str,
    attrs: &mut Vec<Attribute>,
    n_classes: &mut Option<u32>,
) -> std::io::Result<()> {
    if let Some(rest) = line.strip_prefix("#num ") {
        attrs.push(Schema::numeric(rest.trim()));
    } else if let Some(rest) = line.strip_prefix("#cat ") {
        let mut parts = rest.split_whitespace();
        let name = parts.next().ok_or_else(|| bad("missing #cat name"))?;
        let card: u32 = parts
            .next()
            .ok_or_else(|| bad("missing #cat cardinality"))?
            .parse()
            .map_err(|e| bad(&format!("bad cardinality: {e}")))?;
        attrs.push(Schema::categorical(name, card));
    } else if let Some(rest) = line.strip_prefix("#classes ") {
        let k: u32 = rest
            .trim()
            .parse()
            .map_err(|e| bad(&format!("bad #classes: {e}")))?;
        if k == 0 {
            return Err(bad("#classes must be at least 1"));
        }
        *n_classes = Some(k);
    }
    Ok(())
}

/// The empty table a complete header block declares.
fn empty_table(attrs: Vec<Attribute>, n_classes: Option<u32>) -> std::io::Result<LabeledTable> {
    let n_classes = n_classes.ok_or_else(|| bad("missing #classes header"))?;
    Ok(LabeledTable::new(Arc::new(Schema::new(attrs)), n_classes))
}

/// Parses the data row `line` (file line `lineno`) and appends it to `out`.
/// The field count is checked before any value, so an arity error comes
/// first on a line that has both.
fn read_row(
    line: &str,
    lineno: usize,
    out: &mut LabeledTable,
    row_buf: &mut Vec<Value>,
) -> std::io::Result<()> {
    let schema = out.table.schema();
    let n_fields = line.bytes().filter(|&b| b == b',').count() + 1;
    if n_fields != schema.len() + 1 {
        return Err(bad(&format!(
            "line {lineno}: row has {n_fields} fields, expected {}",
            schema.len() + 1
        )));
    }
    let mut fields = line.split(',');
    row_buf.clear();
    for a in schema.attrs() {
        let f = fields.next().unwrap_or_default();
        let v = match a.ty {
            AttrType::Numeric => {
                let x: f64 = f.parse().map_err(|e| {
                    bad(&format!(
                        "line {lineno}: bad numeric {f:?} for attribute {:?}: {e}",
                        a.name
                    ))
                })?;
                // `parse` accepts `nan` and `inf`; split search and box
                // containment assume finite values.
                if !x.is_finite() {
                    return Err(bad(&format!(
                        "line {lineno}: non-finite numeric {f:?} for attribute {:?}",
                        a.name
                    )));
                }
                Value::Num(x)
            }
            AttrType::Categorical { cardinality } => {
                let code: u32 = f.parse().map_err(|e| {
                    bad(&format!(
                        "line {lineno}: bad category {f:?} for attribute {:?}: {e}",
                        a.name
                    ))
                })?;
                // Range-check here: `push_row` guards the same invariant
                // with an assert, but a malformed file must fail with
                // `InvalidData`, not a panic.
                if code >= cardinality {
                    return Err(bad(&format!(
                        "line {lineno}: category code {code} out of range 0..{cardinality} for attribute {:?}",
                        a.name
                    )));
                }
                Value::Cat(code)
            }
        };
        row_buf.push(v);
    }
    let label: u32 = fields
        .next()
        .unwrap_or_default()
        .trim()
        .parse()
        .map_err(|e| bad(&format!("line {lineno}: bad class label: {e}")))?;
    if label >= out.n_classes {
        return Err(bad(&format!(
            "line {lineno}: class label {label} out of range 0..{}",
            out.n_classes
        )));
    }
    out.push_row(row_buf, label);
    Ok(())
}

/// Reads the next line into `buf` without its `\n` or `\r\n` ending, as
/// [`BufRead::lines`] strips it; `false` at end of input.
fn next_line<R: BufRead>(r: &mut R, buf: &mut Vec<u8>) -> std::io::Result<bool> {
    buf.clear();
    if r.read_until(b'\n', buf)? == 0 {
        return Ok(false);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
    }
    Ok(true)
}

/// `line` (file line `lineno`) as text.
fn utf8(line: &[u8], lineno: usize) -> std::io::Result<&str> {
    std::str::from_utf8(line).map_err(|e| bad(&format!("line {lineno}: {e}")))
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::assoc::{AssocGen, AssocGenParams};
    use crate::classify::{ClassifyFn, ClassifyGen};

    #[test]
    fn transactions_round_trip() {
        let gen = AssocGen::new(AssocGenParams::small(), 1);
        let data = gen.generate(200, 2);
        let mut buf = Vec::new();
        write_transactions(&data, &mut buf).unwrap();
        let back = read_transactions(buf.as_slice()).unwrap();
        assert_eq!(data, back);
    }

    #[test]
    fn empty_transactions_survive() {
        let mut data = TransactionSet::new(5);
        data.push(vec![1, 2]);
        data.push(vec![]);
        data.push(vec![4]);
        let mut buf = Vec::new();
        write_transactions(&data, &mut buf).unwrap();
        let back = read_transactions(buf.as_slice()).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(back.get(1), &[] as &[u32]);
        assert_eq!(data, back);
    }

    #[test]
    fn labeled_table_round_trip() {
        let data = ClassifyGen::new(ClassifyFn::F2).generate(150, 3);
        let mut buf = Vec::new();
        write_labeled_table(&data, &mut buf).unwrap();
        let back = read_labeled_table(buf.as_slice()).unwrap();
        assert_eq!(data, back);
    }

    #[test]
    fn rejects_malformed_headers() {
        assert!(read_transactions("no header\n1 2".as_bytes()).is_err());
        assert!(
            read_labeled_table("#num x\n1.0,0".as_bytes()).is_err(),
            "missing #classes"
        );
    }

    #[test]
    fn rejects_bad_row_arity() {
        let text = "#num x\n#classes 2\n1.0,2.0,0\n";
        assert!(read_labeled_table(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_range_item_without_panicking() {
        // Regression: item ids beyond the declared universe used to flow
        // straight into `TransactionSet::push` and trip its assert.
        let err = read_transactions("#items 5\n1 2\n3 9\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(
            msg.contains("line 3") && msg.contains('9'),
            "error must name the offending line and item: {msg}"
        );
    }

    #[test]
    fn rejects_out_of_range_label_without_panicking() {
        let err = read_labeled_table("#num x\n#classes 2\n1.0,5\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("line 3: class label 5"), "{err}");
    }

    #[test]
    fn rejects_out_of_range_category_without_panicking() {
        let err = read_labeled_table("#cat color 3\n#classes 2\n7,0\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let msg = err.to_string();
        assert!(msg.contains("line 3: category code 7"), "{msg}");
        assert!(msg.contains("\"color\""), "{msg}");
    }

    #[test]
    fn rejects_non_finite_numerics_and_zero_classes() {
        for v in ["nan", "NaN", "inf", "-inf", "infinity"] {
            let text = format!("#num x\n#num age\n#classes 2\n1.0,2.0,0\n1.0,{v},1\n");
            let err = read_labeled_table(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            let msg = err.to_string();
            assert!(
                msg.contains("line 5") && msg.contains("\"age\"") && msg.contains("non-finite"),
                "{v}: {msg}"
            );
        }
        let err = read_labeled_table("#num x\n#classes 0\n".as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("#classes"), "{err}");
    }

    #[test]
    fn float_precision_preserved() {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut t = LabeledTable::new(schema, 2);
        t.push_row(&[Value::Num(std::f64::consts::PI)], 1);
        t.push_row(&[Value::Num(1.0 / 3.0)], 0);
        let mut buf = Vec::new();
        write_labeled_table(&t, &mut buf).unwrap();
        let back = read_labeled_table(buf.as_slice()).unwrap();
        assert_eq!(t, back, "shortest round-trip formatting must be exact");
    }

    /// The reader this module had before the streaming one: every line
    /// through `BufRead::lines`, `split_whitespace` and
    /// `TransactionSet::push`. The streaming reader must agree with it on
    /// every valid-UTF-8 input, in result and in error.
    fn reference_read_transactions(bytes: &[u8]) -> std::io::Result<TransactionSet> {
        let mut lines = bytes.lines();
        let header = lines
            .next()
            .ok_or_else(|| bad("empty transaction file"))??;
        let n_items: u32 = header
            .strip_prefix("#items ")
            .ok_or_else(|| bad("missing #items header"))?
            .trim()
            .parse()
            .map_err(|e| bad(&format!("bad #items value: {e}")))?;
        let mut out = TransactionSet::new(n_items);
        for (i, line) in lines.enumerate() {
            let (line, lineno) = (line?, i + 2);
            let items: Vec<u32> = line
                .split_whitespace()
                .map(|t| {
                    t.parse()
                        .map_err(|e| bad(&format!("line {lineno}: bad item {t:?}: {e}")))
                })
                .collect::<Result<_, _>>()?;
            if let Some(&item) = items.iter().find(|&&i| i >= n_items) {
                return Err(bad(&format!(
                    "line {lineno}: item {item} out of range 0..{n_items}"
                )));
            }
            out.push(items);
        }
        Ok(out)
    }

    fn assert_same_as_reference(bytes: &[u8]) {
        let got = read_transactions(bytes);
        let want = reference_read_transactions(bytes);
        match (got, want) {
            (Ok(g), Ok(w)) => assert_eq!(g, w, "{:?}", String::from_utf8_lossy(bytes)),
            (Err(g), Err(w)) => {
                assert_eq!(g.kind(), w.kind(), "{:?}", String::from_utf8_lossy(bytes));
                assert_eq!(g.to_string(), w.to_string());
            }
            (g, w) => panic!(
                "{:?}: streaming {g:?}, reference {w:?}",
                String::from_utf8_lossy(bytes)
            ),
        }
    }

    #[test]
    fn transaction_reader_matches_the_reference() {
        let gen = AssocGen::new(AssocGenParams::small(), 3);
        let mut generated = Vec::new();
        write_transactions(&gen.generate(300, 4), &mut generated).unwrap();
        assert_same_as_reference(&generated);
        let cases = [
            "#items 10\r\n1 2\r\n3\r\n",
            "#items 10\n1\t2\t\t3\n4 \t 5\n",
            "#items 10\n1    2     3\n",
            "#items 10\n   1 2\n3 4   \n\t5\t\n",
            "#items 10\n+7 1\n2 +3\n",
            "#items 10\n1\u{a0}2\n3\u{3000}4\n",
            "#items 10\n9 1 5\n3 3 1 3\n2 2\n",
            "#items 10\n\n1\n\n\n2\n\n",
            "#items 10\n1 2\n3 4",
            "#items 10\n1 2\n\r",
            "#items 10\n007 0\n",
            "#items 10\n1\n4294967295\n",
            "#items 10\n1\n4294967296\n",
            "#items 10\n1\n99999999999999999999 3\n",
            "#items 10\n1\n2 10\n",
            "#items 10\n1\n12 x\n",
            "#items 10\n1\nx 12\n",
            "#items 10\n1\nx 12",
            "#items 10\n-1\n",
            "#items 10\n1,2\n",
            "#items 10\r\n",
            "#items 10",
            "#items 4294967295\n4294967294 0\n",
            "#items  7 \n6\n",
            "#items x\n1\n",
            "#item 10\n1\n",
            "",
        ];
        for text in cases {
            assert_same_as_reference(text.as_bytes());
        }
        let err = read_transactions("#items 10\n1\nx 12".as_bytes()).unwrap_err();
        assert_eq!(
            err.to_string(),
            "line 3: bad item \"x\": invalid digit found in string"
        );
    }

    /// Small inputs of each format for the byte sweeps below.
    const SWEEP_TRANSACTIONS: &str = "#items 12\n1 3 5\n\n0 11\r\n7 2 2\n4\t9  10\n6";
    const SWEEP_TABLE: &str =
        "#num x\n#cat c 3\n#classes 2\n1.5,0,1\n-2,2,0\n\n3e2,1,1\r\n0.25,0,0";

    /// Every truncation and every single-byte replacement of `text`.
    fn mutants(text: &str) -> Vec<Vec<u8>> {
        let bytes = text.as_bytes();
        let mut out: Vec<Vec<u8>> = (0..=bytes.len()).map(|n| bytes[..n].to_vec()).collect();
        for i in 0..bytes.len() {
            for b in [0x00, b'9', b',', b' ', 0xFF] {
                let mut m = bytes.to_vec();
                m[i] = b;
                out.push(m);
            }
        }
        out
    }

    fn assert_ok_or_invalid_data<T>(bytes: &[u8], result: std::io::Result<T>) {
        if let Err(e) = result {
            assert_eq!(
                e.kind(),
                std::io::ErrorKind::InvalidData,
                "{:?}: {e}",
                String::from_utf8_lossy(bytes)
            );
        }
    }

    #[test]
    fn transaction_reader_survives_every_truncation_and_byte_replacement() {
        for m in mutants(SWEEP_TRANSACTIONS) {
            let result = std::panic::catch_unwind(|| read_transactions(m.as_slice()))
                .unwrap_or_else(|_| panic!("panicked on {:?}", String::from_utf8_lossy(&m)));
            if std::str::from_utf8(&m).is_ok() {
                assert_same_as_reference(&m);
            }
            assert_ok_or_invalid_data(&m, result);
        }
    }

    #[test]
    fn table_reader_survives_every_truncation_and_byte_replacement() {
        assert!(read_labeled_table(SWEEP_TABLE.as_bytes()).is_ok());
        for m in mutants(SWEEP_TABLE) {
            let result = std::panic::catch_unwind(|| read_labeled_table(m.as_slice()))
                .unwrap_or_else(|_| panic!("panicked on {:?}", String::from_utf8_lossy(&m)));
            assert_ok_or_invalid_data(&m, result);
        }
    }

    #[test]
    fn invalid_utf8_is_named_by_line() {
        let err = read_transactions(&b"#items 5\n1 2\n3 \xff\n"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 3: "), "{err}");
        let err = read_labeled_table(&b"#num x\n#classes 2\n1.0,0\n\xff,1\n"[..]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().starts_with("line 4: "), "{err}");
    }

    #[test]
    fn header_lines_after_the_first_row_are_rejected() {
        for (late, name) in [
            ("#num y", "#num"),
            ("#cat c 2", "#cat"),
            ("#classes 3", "#classes"),
        ] {
            let text = format!("#num x\n#classes 2\n1.0,0\n\n{late}\n2.0,1\n");
            let err = read_labeled_table(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
            assert_eq!(
                err.to_string(),
                format!("line 5: {name} header after the first data row")
            );
        }
        // Before the first row, header lines may come in any order.
        let t = read_labeled_table("#classes 2\n\n#num x\n#cat c 2\n1.0,1,0\n".as_bytes()).unwrap();
        assert_eq!((t.len(), t.table.schema().len()), (1, 2));
    }

    #[test]
    fn arity_is_checked_before_values() {
        let err = read_labeled_table("#num x\n#classes 2\nnan,2.0,0\n".as_bytes()).unwrap_err();
        assert_eq!(err.to_string(), "line 3: row has 3 fields, expected 2");
    }
}
