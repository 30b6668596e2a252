//! Dataset persistence: plain-text readers and writers for transaction
//! sets and labelled tables.
//!
//! Formats are deliberately simple and diff-friendly:
//!
//! * **Transactions** — one transaction per line, space-separated item ids,
//!   preceded by a header line `#items <n>`. Empty lines are empty
//!   transactions (they matter: selectivities divide by the transaction
//!   count).
//! * **Labelled tables** — a header line per attribute
//!   (`#num <name>` / `#cat <name> <cardinality>`), one `#classes <k>`
//!   line, then one row per line: comma-separated values with the class
//!   label last.
//!
//! Both round-trip exactly (floats via Rust's shortest-round-trip
//! formatting).

use focus_core::data::{AttrType, LabeledTable, Schema, TransactionSet, Value};
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
    let mut lines = BufReader::new(r).lines();
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
    for (lineno, line) in lines.enumerate() {
        let line = line?;
        let items: Vec<u32> = line
            .split_whitespace()
            .map(|t| t.parse().map_err(|e| bad(&format!("bad item {t:?}: {e}"))))
            .collect::<Result<_, _>>()?;
        // Validate before `TransactionSet::push`: its range check is an
        // assert (a programmer-error guard), and a malformed *file* must
        // surface as `InvalidData`, not a panic.
        if let Some(&item) = items.iter().find(|&&i| i >= n_items) {
            return Err(bad(&format!(
                "line {}: item {item} out of range 0..{n_items}",
                lineno + 2
            )));
        }
        out.push(items);
    }
    Ok(out)
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
    let reader = BufReader::new(r);
    let mut attrs = Vec::new();
    let mut n_classes: Option<u32> = None;
    // Data rows with their 1-based file line, for error messages.
    let mut rows: Vec<(usize, String)> = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
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
            n_classes = Some(k);
        } else if !line.trim().is_empty() {
            rows.push((lineno + 1, line));
        }
    }
    let n_classes = n_classes.ok_or_else(|| bad("missing #classes header"))?;
    let schema = Arc::new(Schema::new(attrs));
    let mut out = LabeledTable::new(Arc::clone(&schema), n_classes);
    let mut row_buf: Vec<Value> = Vec::with_capacity(schema.len());
    for (lineno, line) in rows {
        row_buf.clear();
        let fields: Vec<&str> = line.split(',').collect();
        if fields.len() != schema.len() + 1 {
            return Err(bad(&format!(
                "line {lineno}: row has {} fields, expected {}",
                fields.len(),
                schema.len() + 1
            )));
        }
        for (f, a) in fields[..schema.len()].iter().zip(schema.attrs()) {
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
        let label: u32 = fields[schema.len()]
            .trim()
            .parse()
            .map_err(|e| bad(&format!("line {lineno}: bad class label: {e}")))?;
        if label >= n_classes {
            return Err(bad(&format!(
                "line {lineno}: class label {label} out of range 0..{n_classes}"
            )));
        }
        out.push_row(&row_buf, label);
    }
    Ok(out)
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
}
