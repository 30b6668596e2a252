//! Model persistence: the plain-text lits-model format.
//!
//! A mined model is a first-class artifact in FOCUS workflows — the δ*
//! screening of Section 4.1.1 operates on models *without* their datasets,
//! so models need to outlive the mining run. `mine --out` writes this
//! format and `bound` reads it. It is line-oriented and diff-friendly:
//!
//! ```text
//! #lits-model minsup 0.01 n 100000
//! 3 7 19 | 0.0421            (itemset items | support)
//! ```
//!
//! Floats round-trip exactly via Rust's shortest representation. Registry
//! snapshots of every family use the binary format of
//! `focus_registry::binfmt` instead.

use crate::model::LitsModel;
use crate::region::Itemset;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Writes a lits-model.
pub fn write_lits_model<W: Write>(model: &LitsModel, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "#lits-model minsup {} n {}",
        model.minsup(),
        model.n_transactions()
    )?;
    for (s, sup) in model.itemsets().iter().zip(model.supports()) {
        for (i, item) in s.items().iter().enumerate() {
            if i > 0 {
                write!(w, " ")?;
            }
            write!(w, "{item}")?;
        }
        writeln!(w, " | {sup}")?;
    }
    w.flush()
}

/// Parses a minsup or support, which must be a fraction in `[0, 1]` (so not
/// NaN): [`LitsModel::new`] asserts it of the minsup, and one support
/// outside it makes every deviation of the model NaN or meaningless.
/// Errors name the 1-based line.
fn fraction(what: &str, text: &str, line: usize) -> std::io::Result<f64> {
    let v: f64 = text
        .trim()
        .parse()
        .map_err(|e| bad(&format!("line {line}: bad {what}: {e}")))?;
    if !(0.0..=1.0).contains(&v) {
        return Err(bad(&format!(
            "line {line}: {what} {v} is not a fraction in [0, 1]"
        )));
    }
    Ok(v)
}

/// Reads a lits-model written by [`write_lits_model`]. A minsup or support
/// that is not a fraction in `[0, 1]` is `InvalidData` naming its line.
pub fn read_lits_model<R: Read>(r: R) -> std::io::Result<LitsModel> {
    let mut lines = BufReader::new(r).lines();
    let header = lines.next().ok_or_else(|| bad("empty model file"))??;
    let rest = header
        .strip_prefix("#lits-model minsup ")
        .ok_or_else(|| bad("missing lits-model header"))?;
    let mut parts = rest.split(" n ");
    let minsup = fraction(
        "minsup",
        parts.next().ok_or_else(|| bad("missing minsup"))?,
        1,
    )?;
    let n: u64 = parts
        .next()
        .ok_or_else(|| bad("missing n"))?
        .trim()
        .parse()
        .map_err(|e| bad(&format!("bad n: {e}")))?;
    let mut itemsets = Vec::new();
    let mut supports = Vec::new();
    for (i, line) in lines.enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (items_part, sup_part) = line
            .split_once('|')
            .ok_or_else(|| bad("itemset line missing '|'"))?;
        let items: Vec<u32> = items_part
            .split_whitespace()
            .map(|t| t.parse().map_err(|e| bad(&format!("bad item: {e}"))))
            .collect::<Result<_, _>>()?;
        itemsets.push(Itemset::new(items));
        supports.push(fraction("support", sup_part, i + 2)?);
    }
    Ok(LitsModel::new(itemsets, supports, minsup, n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lits_model_round_trip() {
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
        let mut buf = Vec::new();
        write_lits_model(&model, &mut buf).unwrap();
        let back = read_lits_model(buf.as_slice()).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn empty_lits_model_round_trip() {
        let model = LitsModel::new(Vec::new(), Vec::new(), 0.05, 0);
        let mut buf = Vec::new();
        write_lits_model(&model, &mut buf).unwrap();
        assert_eq!(read_lits_model(buf.as_slice()).unwrap(), model);
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_lits_model("nonsense".as_bytes()).is_err());
        assert!(
            read_lits_model("#lits-model minsup 0.1 n 10\n1 2 0.5\n".as_bytes()).is_err(),
            "missing '|' separator must fail"
        );
    }

    #[test]
    fn rejects_minsup_and_supports_outside_the_unit_interval() {
        for (text, expected) in [
            (
                "#lits-model minsup 2 n 10\n",
                "line 1: minsup 2 is not a fraction in [0, 1]",
            ),
            (
                "#lits-model minsup nan n 10\n",
                "line 1: minsup NaN is not a fraction in [0, 1]",
            ),
            (
                "#lits-model minsup 0.1 n 10\n1 | 0.5\n\n2 | 7.5\n",
                "line 4: support 7.5 is not a fraction in [0, 1]",
            ),
            (
                "#lits-model minsup 0.1 n 10\n1 | nan\n",
                "line 2: support NaN is not a fraction in [0, 1]",
            ),
            (
                "#lits-model minsup 0.1 n 10\n1 | -inf\n",
                "line 2: support -inf is not a fraction in [0, 1]",
            ),
            (
                "#lits-model minsup 0.1 n 10\n1 | x\n",
                "line 2: bad support: invalid float literal",
            ),
        ] {
            let err = read_lits_model(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{text:?}");
            assert_eq!(err.to_string(), expected, "{text:?}");
        }
    }
}
