//! Dataset and attribute-space primitives (Definition 3.1 of the paper).
//!
//! FOCUS is defined over an *attribute space* `A(I) = D1 × … × Dn`: the cross
//! product of attribute domains. A *dataset* is a finite enumerated set of
//! tuples in that space. Two dataset shapes appear in the paper:
//!
//! * relational tables of mixed numeric/categorical attributes, optionally
//!   with a class label (dt-models and cluster-models);
//! * market-basket transaction sets over an item universe (lits-models).
//!
//! Both carry deterministic sampling and pooling operations because the
//! sample-size study (Section 6) and the bootstrap qualification procedure
//! (Section 3.4) are defined in terms of them.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::Arc;

/// A single attribute value: numeric or categorical (coded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A numeric (continuous or ordinal) value.
    Num(f64),
    /// A categorical value, encoded as a small integer code.
    Cat(u32),
}

impl Value {
    /// The numeric payload; panics if the value is categorical.
    pub fn as_num(&self) -> f64 {
        match self {
            Value::Num(x) => *x,
            Value::Cat(c) => panic!("expected numeric value, found categorical code {c}"),
        }
    }

    /// The categorical code; panics if the value is numeric.
    pub fn as_cat(&self) -> u32 {
        match self {
            Value::Cat(c) => *c,
            Value::Num(x) => panic!("expected categorical value, found numeric {x}"),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Num(x) => write!(f, "{x}"),
            Value::Cat(c) => write!(f, "#{c}"),
        }
    }
}

/// The type of an attribute domain.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrType {
    /// A numeric attribute over the reals.
    Numeric,
    /// A categorical attribute with codes `0..cardinality`.
    Categorical {
        /// Number of distinct category codes.
        cardinality: u32,
    },
}

/// A named attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct Attribute {
    /// Attribute name, e.g. `"age"` or `"salary"`.
    pub name: String,
    /// Domain type.
    pub ty: AttrType,
}

/// The attribute space `A(I)`: an ordered list of attributes.
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    attrs: Vec<Attribute>,
}

impl Schema {
    /// Builds a schema from a list of attributes.
    pub fn new(attrs: Vec<Attribute>) -> Self {
        Self { attrs }
    }

    /// Convenience constructor for a numeric attribute.
    pub fn numeric(name: &str) -> Attribute {
        Attribute {
            name: name.to_string(),
            ty: AttrType::Numeric,
        }
    }

    /// Convenience constructor for a categorical attribute.
    pub fn categorical(name: &str, cardinality: u32) -> Attribute {
        Attribute {
            name: name.to_string(),
            ty: AttrType::Categorical { cardinality },
        }
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// True if the schema has no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// The attribute at position `i`.
    pub fn attr(&self, i: usize) -> &Attribute {
        &self.attrs[i]
    }

    /// All attributes in order.
    pub fn attrs(&self) -> &[Attribute] {
        &self.attrs
    }

    /// Resolves an attribute name to its index.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    /// Validates a row against the schema (arity and per-slot value kinds,
    /// categorical codes within cardinality).
    pub fn check_row(&self, row: &[Value]) -> Result<(), String> {
        if row.len() != self.attrs.len() {
            return Err(format!(
                "row has {} values but schema has {} attributes",
                row.len(),
                self.attrs.len()
            ));
        }
        for (i, (v, a)) in row.iter().zip(&self.attrs).enumerate() {
            match (v, &a.ty) {
                (Value::Num(_), AttrType::Numeric) => {}
                (Value::Cat(c), AttrType::Categorical { cardinality }) => {
                    if c >= cardinality {
                        return Err(format!(
                            "attribute {} ({}): code {} out of range 0..{}",
                            i, a.name, c, cardinality
                        ));
                    }
                }
                _ => {
                    return Err(format!(
                        "attribute {} ({}): value kind does not match schema",
                        i, a.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// A dense row-major relational table over a [`Schema`].
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Arc<Schema>,
    values: Vec<Value>,
    n_rows: usize,
}

impl Table {
    /// Creates an empty table over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            values: Vec::new(),
            n_rows: 0,
        }
    }

    /// Creates an empty table with row capacity pre-reserved.
    pub fn with_capacity(schema: Arc<Schema>, rows: usize) -> Self {
        let width = schema.len();
        Self {
            schema,
            values: Vec::with_capacity(rows * width),
            n_rows: 0,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n_rows
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.n_rows == 0
    }

    /// Appends a row; panics if it does not match the schema.
    pub fn push_row(&mut self, row: &[Value]) {
        if let Err(e) = self.schema.check_row(row) {
            panic!("push_row: {e}");
        }
        self.values.extend_from_slice(row);
        self.n_rows += 1;
    }

    /// The `i`-th row as a slice.
    pub fn row(&self, i: usize) -> &[Value] {
        let w = self.schema.len();
        &self.values[i * w..(i + 1) * w]
    }

    /// Iterates over rows.
    pub fn rows(&self) -> impl Iterator<Item = &[Value]> + '_ {
        let w = self.schema.len();
        self.values.chunks_exact(w.max(1)).take(self.n_rows)
    }

    /// Builds a table directly from row-major values — the bulk-load path
    /// used by the binary snapshot decoder, which already holds the whole
    /// value buffer and must not pay a per-row `push_row` round trip.
    /// Every row is still validated against the schema; the error string
    /// describes the first violation.
    pub fn from_values(
        schema: Arc<Schema>,
        values: Vec<Value>,
        n_rows: usize,
    ) -> Result<Table, String> {
        let width = schema.len();
        let want = n_rows
            .checked_mul(width)
            .ok_or_else(|| "row count × width overflows".to_string())?;
        if values.len() != want {
            return Err(format!(
                "value buffer holds {} values but {n_rows} rows × {width} attributes needs {want}",
                values.len()
            ));
        }
        for (i, row) in values.chunks_exact(width.max(1)).take(n_rows).enumerate() {
            schema.check_row(row).map_err(|e| format!("row {i}: {e}"))?;
        }
        Ok(Table {
            schema,
            values,
            n_rows,
        })
    }

    /// Builds a new table containing the rows at `indices` (in order;
    /// duplicates allowed, which is what bootstrap resampling needs).
    pub fn subset(&self, indices: &[usize]) -> Table {
        let mut t = Table::with_capacity(Arc::clone(&self.schema), indices.len());
        for &i in indices {
            t.values.extend_from_slice(self.row(i));
            t.n_rows += 1;
        }
        t
    }
}

/// A [`Table`] with a class label per row: the input shape for dt-models.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledTable {
    /// The attribute part of the dataset.
    pub table: Table,
    /// One class code per row, each `< n_classes`.
    pub labels: Vec<u32>,
    /// Number of distinct classes.
    pub n_classes: u32,
}

impl LabeledTable {
    /// Creates an empty labelled table.
    pub fn new(schema: Arc<Schema>, n_classes: u32) -> Self {
        assert!(n_classes > 0, "need at least one class");
        Self {
            table: Table::new(schema),
            labels: Vec::new(),
            n_classes,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Appends a labelled row.
    pub fn push_row(&mut self, row: &[Value], label: u32) {
        assert!(
            label < self.n_classes,
            "label {label} out of range 0..{}",
            self.n_classes
        );
        self.table.push_row(row);
        self.labels.push(label);
    }

    /// Iterates over `(row, label)` pairs.
    pub fn rows(&self) -> impl Iterator<Item = (&[Value], u32)> + '_ {
        self.table.rows().zip(self.labels.iter().copied())
    }

    /// Builds a new labelled table from row indices (duplicates allowed).
    pub fn subset(&self, indices: &[usize]) -> LabeledTable {
        LabeledTable {
            table: self.table.subset(indices),
            labels: indices.iter().map(|&i| self.labels[i]).collect(),
            n_classes: self.n_classes,
        }
    }

    /// Draws a simple random sample *without* replacement of
    /// `ceil(fraction · n)` rows — the sampling model of Section 6.
    pub fn sample_fraction(&self, fraction: f64, seed: u64) -> LabeledTable {
        let idx = sample_indices(self.len(), fraction, seed);
        self.subset(&idx)
    }

    /// Concatenates two labelled tables over the same schema.
    pub fn concat(&self, other: &LabeledTable) -> LabeledTable {
        assert_eq!(
            self.table.schema(),
            other.table.schema(),
            "concat requires identical schemas"
        );
        assert_eq!(self.n_classes, other.n_classes);
        let mut out = self.clone();
        for (row, label) in other.rows() {
            out.push_row(row, label);
        }
        out
    }
}

/// A set of market-basket transactions over items `0..n_items`
/// (CSR layout: one offsets array, one flat items array).
#[derive(Debug, Clone, PartialEq)]
pub struct TransactionSet {
    n_items: u32,
    offsets: Vec<usize>,
    items: Vec<u32>,
}

impl TransactionSet {
    /// Creates an empty transaction set over an item universe of size
    /// `n_items`.
    pub fn new(n_items: u32) -> Self {
        Self {
            n_items,
            offsets: vec![0],
            items: Vec::new(),
        }
    }

    /// Size of the item universe.
    pub fn n_items(&self) -> u32 {
        self.n_items
    }

    /// Number of transactions.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True if there are no transactions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a transaction. Items are sorted and deduplicated; codes must
    /// be `< n_items`.
    pub fn push(&mut self, mut items: Vec<u32>) {
        items.sort_unstable();
        items.dedup();
        if let Some(&max) = items.last() {
            assert!(
                max < self.n_items,
                "item {max} out of range 0..{}",
                self.n_items
            );
        }
        self.items.extend_from_slice(&items);
        self.offsets.push(self.items.len());
    }

    /// Builds a transaction set directly from its CSR parts — the
    /// bulk-load path used by the binary snapshot decoder, avoiding the
    /// per-transaction `Vec` + sort that [`TransactionSet::push`] pays.
    /// The parts must already satisfy the representation invariants
    /// (offsets start at 0, are non-decreasing and end at `items.len()`;
    /// each transaction strictly increasing with items `< n_items`);
    /// violations are reported, not repaired, so a corrupt binary artifact
    /// surfaces as an error instead of silently re-sorted data.
    pub fn from_parts(
        n_items: u32,
        offsets: Vec<usize>,
        items: Vec<u32>,
    ) -> Result<TransactionSet, String> {
        if offsets.first() != Some(&0) {
            return Err("offsets must start at 0".to_string());
        }
        if *offsets.last().expect("non-empty by the check above") != items.len() {
            return Err(format!(
                "last offset {} does not cover the {} items",
                offsets.last().unwrap(),
                items.len()
            ));
        }
        // Monotonicity first, over the whole column: once the offsets are
        // non-decreasing and end at `items.len()`, every slice below is in
        // bounds, so an overshooting offset is reported, never a panic.
        if let Some(t) = offsets.windows(2).position(|w| w[1] < w[0]) {
            return Err(format!("offsets decrease at transaction {t}"));
        }
        for (t, w) in offsets.windows(2).enumerate() {
            let txn = &items[w[0]..w[1]];
            if let Some(&max) = txn.last() {
                if max >= n_items {
                    return Err(format!(
                        "transaction {t}: item {max} out of range 0..{n_items}"
                    ));
                }
            }
            if txn.windows(2).any(|p| p[1] <= p[0]) {
                return Err(format!(
                    "transaction {t} is not strictly increasing (sorted + deduplicated)"
                ));
            }
        }
        Ok(TransactionSet {
            n_items,
            offsets,
            items,
        })
    }

    /// The `i`-th transaction as a sorted item slice.
    pub fn get(&self, i: usize) -> &[u32] {
        &self.items[self.offsets[i]..self.offsets[i + 1]]
    }

    /// Iterates over transactions.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        (0..self.len()).map(move |i| self.get(i))
    }

    /// Total number of stored items across all transactions (the length
    /// of the CSR item column) — an input to the counting cost model.
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    /// Average transaction length.
    pub fn avg_len(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.items.len() as f64 / self.len() as f64
        }
    }

    /// Builds a new transaction set from transaction indices (duplicates
    /// allowed, for bootstrap resampling).
    pub fn subset(&self, indices: &[usize]) -> TransactionSet {
        let mut t = TransactionSet::new(self.n_items);
        t.items
            .reserve(indices.len() * (self.avg_len().ceil() as usize + 1));
        for &i in indices {
            t.items.extend_from_slice(self.get(i));
            t.offsets.push(t.items.len());
        }
        t
    }

    /// Draws a simple random sample without replacement of
    /// `ceil(fraction · n)` transactions (Section 6's sampling model; the
    /// paper's Figure 9 labels these curves "WOR").
    pub fn sample_fraction(&self, fraction: f64, seed: u64) -> TransactionSet {
        let idx = sample_indices(self.len(), fraction, seed);
        self.subset(&idx)
    }

    /// Concatenates two transaction sets over the same item universe. This is
    /// how the paper constructs the `D + δ` datasets of Figure 13 (rows
    /// (5)–(7)): the original dataset extended with a new block.
    pub fn concat(&self, other: &TransactionSet) -> TransactionSet {
        assert_eq!(self.n_items, other.n_items, "item universes must match");
        let mut t = self.clone();
        for txn in other.iter() {
            t.items.extend_from_slice(txn);
            t.offsets.push(t.items.len());
        }
        t
    }

    /// A per-transaction membership bitmap for fast subset tests. The bitmap
    /// has `ceil(n_items / 64)` words; `words` must be at least that large.
    pub fn bitmap_of(&self, i: usize, words: &mut [u64]) {
        debug_assert!(
            words.len() * 64 >= self.n_items as usize,
            "bitmap_of: transaction {i} needs {} words to cover items 0..{}, \
             scratch has {}",
            (self.n_items as usize).div_ceil(64),
            self.n_items,
            words.len()
        );
        words.fill(0);
        for &it in self.get(i) {
            words[(it / 64) as usize] |= 1 << (it % 64);
        }
    }
}

/// Shared sampling helper: `ceil(fraction · n)` distinct indices, uniform
/// without replacement, deterministic in `seed`.
pub(crate) fn sample_indices(n: usize, fraction: f64, seed: u64) -> Vec<usize> {
    assert!(
        (0.0..=1.0).contains(&fraction),
        "sample fraction must be in [0,1], got {fraction}"
    );
    let k = ((fraction * n as f64).ceil() as usize).min(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    // Partial Fisher–Yates: only the first k positions need shuffling.
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Resamples `k` indices *with* replacement from `0..n` (bootstrap draws).
pub(crate) fn resample_indices<R: Rng + ?Sized>(n: usize, k: usize, rng: &mut R) -> Vec<usize> {
    (0..k).map(|_| rng.gen_range(0..n)).collect()
}

/// Shuffles a vector deterministically (used by generators and experiments).
pub fn shuffled<T>(mut v: Vec<T>, seed: u64) -> Vec<T> {
    let mut rng = StdRng::seed_from_u64(seed);
    v.shuffle(&mut rng);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Schema::numeric("age"),
            Schema::numeric("salary"),
            Schema::categorical("elevel", 5),
        ]))
    }

    #[test]
    fn schema_lookup() {
        let s = demo_schema();
        assert_eq!(s.len(), 3);
        assert_eq!(s.index_of("salary"), Some(1));
        assert_eq!(s.index_of("nope"), None);
        assert_eq!(s.attr(2).name, "elevel");
    }

    #[test]
    fn table_push_and_row_access() {
        let s = demo_schema();
        let mut t = Table::new(Arc::clone(&s));
        t.push_row(&[Value::Num(30.0), Value::Num(50_000.0), Value::Cat(2)]);
        t.push_row(&[Value::Num(61.0), Value::Num(90_000.0), Value::Cat(4)]);
        assert_eq!(t.len(), 2);
        assert_eq!(t.row(1)[0], Value::Num(61.0));
        assert_eq!(t.rows().count(), 2);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn table_rejects_bad_category() {
        let s = demo_schema();
        let mut t = Table::new(s);
        t.push_row(&[Value::Num(30.0), Value::Num(50_000.0), Value::Cat(5)]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn table_rejects_kind_mismatch() {
        let s = demo_schema();
        let mut t = Table::new(s);
        t.push_row(&[Value::Cat(1), Value::Num(50_000.0), Value::Cat(1)]);
    }

    #[test]
    fn labeled_table_subset_and_concat() {
        let s = demo_schema();
        let mut t = LabeledTable::new(Arc::clone(&s), 2);
        for i in 0..10 {
            t.push_row(
                &[Value::Num(i as f64), Value::Num(0.0), Value::Cat(0)],
                (i % 2) as u32,
            );
        }
        let sub = t.subset(&[0, 0, 9]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.labels, vec![0, 0, 1]);
        let cat = t.concat(&sub);
        assert_eq!(cat.len(), 13);
    }

    #[test]
    fn table_from_values_validates_and_matches_push_row() {
        let s = demo_schema();
        let mut pushed = Table::new(Arc::clone(&s));
        let rows = [
            [Value::Num(30.0), Value::Num(50_000.0), Value::Cat(2)],
            [Value::Num(61.0), Value::Num(90_000.0), Value::Cat(4)],
        ];
        let mut flat = Vec::new();
        for row in &rows {
            pushed.push_row(row);
            flat.extend_from_slice(row);
        }
        let bulk = Table::from_values(Arc::clone(&s), flat.clone(), 2).unwrap();
        assert_eq!(bulk, pushed);
        // Shape and value violations are errors, not panics.
        assert!(Table::from_values(Arc::clone(&s), flat.clone(), 3).is_err());
        let mut bad = flat.clone();
        bad[2] = Value::Cat(9); // cardinality is 5
        assert!(Table::from_values(Arc::clone(&s), bad, 2).is_err());
        let mut wrong_kind = flat;
        wrong_kind[0] = Value::Cat(0);
        assert!(Table::from_values(Arc::clone(&s), wrong_kind, 2).is_err());
        // Empty-schema tables carry their row count explicitly.
        let empty = Arc::new(Schema::new(Vec::new()));
        assert_eq!(Table::from_values(empty, Vec::new(), 7).unwrap().len(), 7);
    }

    #[test]
    fn transactions_from_parts_validates_and_matches_push() {
        let mut pushed = TransactionSet::new(10);
        pushed.push(vec![1, 3, 5]);
        pushed.push(vec![]);
        pushed.push(vec![0, 9]);
        let bulk = TransactionSet::from_parts(10, vec![0, 3, 3, 5], vec![1, 3, 5, 0, 9]).unwrap();
        assert_eq!(bulk, pushed);
        // Each representation invariant is reported, never repaired.
        assert!(TransactionSet::from_parts(10, vec![1, 3], vec![1, 3, 5]).is_err());
        assert!(TransactionSet::from_parts(10, vec![0, 2], vec![1, 3, 5]).is_err());
        assert!(TransactionSet::from_parts(10, vec![0, 2, 1], vec![1, 3]).is_err());
        // An offset past the item column is the decrease that follows it.
        assert_eq!(
            TransactionSet::from_parts(10, vec![0, 5, 2], vec![1, 3]).unwrap_err(),
            "offsets decrease at transaction 1"
        );
        assert!(
            TransactionSet::from_parts(10, vec![0, 2], vec![3, 1]).is_err(),
            "unsorted transaction"
        );
        assert!(
            TransactionSet::from_parts(10, vec![0, 2], vec![1, 1]).is_err(),
            "duplicate item"
        );
        assert!(
            TransactionSet::from_parts(10, vec![0, 1], vec![10]).is_err(),
            "item out of universe"
        );
    }

    #[test]
    fn transactions_sorted_and_deduped() {
        let mut ts = TransactionSet::new(100);
        ts.push(vec![5, 3, 5, 1]);
        assert_eq!(ts.get(0), &[1, 3, 5]);
        assert_eq!(ts.len(), 1);
    }

    #[test]
    fn transactions_subset_allows_duplicates() {
        let mut ts = TransactionSet::new(10);
        ts.push(vec![1, 2]);
        ts.push(vec![3]);
        let sub = ts.subset(&[1, 1, 0]);
        assert_eq!(sub.len(), 3);
        assert_eq!(sub.get(0), &[3]);
        assert_eq!(sub.get(2), &[1, 2]);
    }

    #[test]
    fn sample_fraction_sizes_and_determinism() {
        let mut ts = TransactionSet::new(10);
        for i in 0..100 {
            ts.push(vec![i % 10]);
        }
        let s1 = ts.sample_fraction(0.3, 7);
        let s2 = ts.sample_fraction(0.3, 7);
        let s3 = ts.sample_fraction(0.3, 8);
        assert_eq!(s1.len(), 30);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
        assert_eq!(ts.sample_fraction(1.0, 0).len(), 100);
        assert_eq!(ts.sample_fraction(0.0, 0).len(), 0);
    }

    #[test]
    fn sample_without_replacement_is_distinct() {
        let idx = sample_indices(50, 0.5, 3);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), idx.len());
    }

    #[test]
    fn transaction_bitmap() {
        let mut ts = TransactionSet::new(130);
        ts.push(vec![0, 63, 64, 129]);
        let mut words = vec![0u64; 3];
        ts.bitmap_of(0, &mut words);
        assert_eq!(words[0], 1 | (1 << 63));
        assert_eq!(words[1], 1);
        assert_eq!(words[2], 1 << 1);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "bitmap_of: transaction 0 needs 3 words")]
    fn bitmap_of_rejects_undersized_scratch() {
        let mut ts = TransactionSet::new(130);
        ts.push(vec![0, 129]);
        let mut words = vec![0u64; 2];
        ts.bitmap_of(0, &mut words);
    }

    #[test]
    fn concat_preserves_order() {
        let mut a = TransactionSet::new(5);
        a.push(vec![0]);
        let mut b = TransactionSet::new(5);
        b.push(vec![1]);
        b.push(vec![2]);
        let c = a.concat(&b);
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(2), &[2]);
        assert_eq!(c.avg_len(), 1.0);
    }
}
