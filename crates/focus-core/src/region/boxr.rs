//! Axis-parallel box regions with optional class labels.
//!
//! A [`BoxRegion`] is a conjunction of one constraint per attribute —
//! a half-open interval `[lo, hi)` for numeric attributes, a category bitset
//! for categorical ones — plus an optional class label. Decision-tree leaf
//! regions (Section 2.1: each leaf of a tree over `k` classes contributes
//! `k` regions that differ only in the class label) and cluster regions are
//! boxes. The dt-model GCR (Definition 4.2) is computed by intersecting
//! boxes, and the cluster remainder decomposition uses box subtraction.

use crate::data::{AttrType, Schema, Value};
use std::fmt;

/// A bitset over the codes of one categorical attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatMask {
    bits: Vec<u64>,
    cardinality: u32,
}

impl CatMask {
    /// The full mask: every code `0..cardinality` present.
    pub fn full(cardinality: u32) -> Self {
        let n_words = cardinality.div_ceil(64) as usize;
        let mut bits = vec![u64::MAX; n_words];
        let rem = cardinality % 64;
        if rem != 0 {
            if let Some(last) = bits.last_mut() {
                *last = (1u64 << rem) - 1;
            }
        }
        if cardinality == 0 {
            bits.clear();
        }
        Self { bits, cardinality }
    }

    /// The empty mask.
    pub fn empty(cardinality: u32) -> Self {
        Self {
            bits: vec![0; cardinality.div_ceil(64) as usize],
            cardinality,
        }
    }

    /// A mask containing exactly the given codes.
    pub fn of(cardinality: u32, codes: &[u32]) -> Self {
        let mut m = Self::empty(cardinality);
        for &c in codes {
            m.insert(c);
        }
        m
    }

    /// Number of category codes in the attribute domain.
    pub fn cardinality(&self) -> u32 {
        self.cardinality
    }

    /// Inserts a code.
    pub fn insert(&mut self, code: u32) {
        assert!(code < self.cardinality, "code {code} out of range");
        self.bits[(code / 64) as usize] |= 1 << (code % 64);
    }

    /// True if the mask contains `code`.
    pub fn contains(&self, code: u32) -> bool {
        if code >= self.cardinality {
            return false;
        }
        self.bits[(code / 64) as usize] & (1 << (code % 64)) != 0
    }

    /// Set intersection.
    pub fn intersect(&self, other: &CatMask) -> CatMask {
        assert_eq!(self.cardinality, other.cardinality);
        CatMask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & b)
                .collect(),
            cardinality: self.cardinality,
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &CatMask) -> CatMask {
        assert_eq!(self.cardinality, other.cardinality);
        CatMask {
            bits: self
                .bits
                .iter()
                .zip(&other.bits)
                .map(|(a, b)| a & !b)
                .collect(),
            cardinality: self.cardinality,
        }
    }

    /// True if no codes are present.
    pub fn is_empty(&self) -> bool {
        self.bits.iter().all(|&w| w == 0)
    }

    /// Number of codes present.
    pub fn count(&self) -> u32 {
        self.bits.iter().map(|w| w.count_ones()).sum()
    }

    /// Iterates over the codes present, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.cardinality).filter(move |&c| self.contains(c))
    }
}

/// The constraint a box places on a single attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrConstraint {
    /// Numeric half-open interval `[lo, hi)`. The unconstrained interval is
    /// `(-∞, +∞)` represented with infinite endpoints.
    Interval {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// Categorical membership constraint.
    Cats(CatMask),
}

impl AttrConstraint {
    /// The unconstrained constraint for an attribute type.
    pub fn full(ty: &AttrType) -> Self {
        match ty {
            AttrType::Numeric => AttrConstraint::Interval {
                lo: f64::NEG_INFINITY,
                hi: f64::INFINITY,
            },
            AttrType::Categorical { cardinality } => {
                AttrConstraint::Cats(CatMask::full(*cardinality))
            }
        }
    }

    /// True if the constraint admits `value`.
    pub fn contains(&self, value: &Value) -> bool {
        match (self, value) {
            (AttrConstraint::Interval { lo, hi }, Value::Num(x)) => *lo <= *x && *x < *hi,
            (AttrConstraint::Cats(mask), Value::Cat(c)) => mask.contains(*c),
            _ => panic!("constraint kind does not match value kind"),
        }
    }

    /// Intersection; `None` if the result is certainly empty.
    pub fn intersect(&self, other: &AttrConstraint) -> Option<AttrConstraint> {
        match (self, other) {
            (
                AttrConstraint::Interval { lo: a, hi: b },
                AttrConstraint::Interval { lo: c, hi: d },
            ) => {
                let lo = a.max(*c);
                let hi = b.min(*d);
                if lo < hi {
                    Some(AttrConstraint::Interval { lo, hi })
                } else {
                    None
                }
            }
            (AttrConstraint::Cats(m1), AttrConstraint::Cats(m2)) => {
                let m = m1.intersect(m2);
                if m.is_empty() {
                    None
                } else {
                    Some(AttrConstraint::Cats(m))
                }
            }
            _ => panic!("cannot intersect interval with category constraint"),
        }
    }

    /// True if this constraint is the full domain (used by pretty-printing).
    pub fn is_full(&self) -> bool {
        match self {
            AttrConstraint::Interval { lo, hi } => {
                lo.is_infinite() && *lo < 0.0 && hi.is_infinite() && *hi > 0.0
            }
            AttrConstraint::Cats(m) => m.count() == m.cardinality(),
        }
    }
}

/// An axis-parallel box region with an optional class label.
///
/// The class label acts as one more (exact-match) dimension: two boxes with
/// different concrete labels have an empty intersection. Boxes with
/// `class: None` constrain only the attribute part — these are the leaf
/// *cells* of a decision tree before being split per class.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxRegion {
    /// One constraint per schema attribute, in schema order.
    pub constraints: Vec<AttrConstraint>,
    /// Optional class label refinement.
    pub class: Option<u32>,
}

impl BoxRegion {
    /// The full attribute space for `schema` (no class restriction).
    pub fn full(schema: &Schema) -> Self {
        BoxRegion {
            constraints: schema
                .attrs()
                .iter()
                .map(|a| AttrConstraint::full(&a.ty))
                .collect(),
            class: None,
        }
    }

    /// True if the box admits the (unlabelled) row.
    pub fn contains(&self, row: &[Value]) -> bool {
        debug_assert_eq!(row.len(), self.constraints.len());
        self.constraints.iter().zip(row).all(|(c, v)| c.contains(v))
    }

    /// True if the box admits the labelled row (class must match when the
    /// box specifies one).
    pub fn contains_labeled(&self, row: &[Value], label: u32) -> bool {
        match self.class {
            Some(c) if c != label => false,
            _ => self.contains(row),
        }
    }

    /// Why boxes shaped like `self` and `other` live in different
    /// attribute spaces — different arity, an attribute numeric in one and
    /// categorical in the other, or different category counts — or `None`
    /// when they can be intersected.
    pub fn schema_mismatch(&self, other: &BoxRegion) -> Option<String> {
        let (a, b) = (&self.constraints, &other.constraints);
        if a.len() != b.len() {
            return Some(format!("{} vs {} attributes", a.len(), b.len()));
        }
        a.iter()
            .zip(b)
            .enumerate()
            .find_map(|(i, pair)| match pair {
                (AttrConstraint::Interval { .. }, AttrConstraint::Interval { .. }) => None,
                (AttrConstraint::Cats(x), AttrConstraint::Cats(y)) => {
                    (x.cardinality() != y.cardinality()).then(|| {
                        format!(
                            "attribute {i} has {} vs {} categories",
                            x.cardinality(),
                            y.cardinality()
                        )
                    })
                }
                _ => Some(format!(
                    "attribute {i} is numeric in one and categorical in the other"
                )),
            })
    }

    /// Intersection of two boxes; `None` if certainly empty (disjoint on a
    /// dimension or conflicting class labels).
    pub fn intersect(&self, other: &BoxRegion) -> Option<BoxRegion> {
        assert_eq!(
            self.constraints.len(),
            other.constraints.len(),
            "boxes over different schemas"
        );
        let class = match (self.class, other.class) {
            (Some(a), Some(b)) if a != b => return None,
            (Some(a), _) => Some(a),
            (None, b) => b,
        };
        let mut constraints = Vec::with_capacity(self.constraints.len());
        for (a, b) in self.constraints.iter().zip(&other.constraints) {
            constraints.push(a.intersect(b)?);
        }
        Some(BoxRegion { constraints, class })
    }

    /// Whether the two boxes overlap: `self.intersect(other).is_some()`
    /// without building the intersection.
    pub(crate) fn intersects(&self, other: &BoxRegion) -> bool {
        assert_eq!(
            self.constraints.len(),
            other.constraints.len(),
            "boxes over different schemas"
        );
        if matches!((self.class, other.class), (Some(a), Some(b)) if a != b) {
            return false;
        }
        self.constraints
            .iter()
            .zip(&other.constraints)
            .all(|pair| match pair {
                (
                    AttrConstraint::Interval { lo: a, hi: b },
                    AttrConstraint::Interval { lo: c, hi: d },
                ) => a.max(*c) < b.min(*d),
                (AttrConstraint::Cats(m1), AttrConstraint::Cats(m2)) => {
                    assert_eq!(m1.cardinality, m2.cardinality);
                    m1.bits.iter().zip(&m2.bits).any(|(x, y)| x & y != 0)
                }
                _ => panic!("cannot intersect interval with category constraint"),
            })
    }

    /// A copy of this box restricted to class `c`.
    pub fn with_class(&self, c: u32) -> BoxRegion {
        BoxRegion {
            constraints: self.constraints.clone(),
            class: Some(c),
        }
    }

    /// Box difference `self \ other`, decomposed into disjoint boxes.
    ///
    /// Standard coordinate sweep: for each dimension in turn, emit the parts
    /// of `self` outside `other` on that dimension (with all previous
    /// dimensions clipped to the overlap). Returns `[self.clone()]` when the
    /// boxes do not intersect. Class labels: if `other` has a class and
    /// `self` does not (or they differ), nothing is removed.
    pub fn subtract(&self, other: &BoxRegion) -> Vec<BoxRegion> {
        if self.intersect(other).is_none() {
            return vec![self.clone()];
        }
        // Class semantics: subtraction of a class-specific box from a
        // class-free box would split the class dimension; FOCUS only needs
        // subtraction between class-free cluster boxes, so we require
        // compatible labels here (the intersect() check above admits
        // (None, Some) pairs, which we reject for subtraction).
        assert!(
            self.class == other.class || other.class.is_none(),
            "subtract requires other's class to cover self's"
        );
        let mut pieces = Vec::new();
        let mut clipped = self.clone();
        for (dim, (a, b)) in self.constraints.iter().zip(&other.constraints).enumerate() {
            match (a, b) {
                (
                    AttrConstraint::Interval { lo: alo, hi: ahi },
                    AttrConstraint::Interval { lo: blo, hi: bhi },
                ) => {
                    if alo < blo {
                        let mut p = clipped.clone();
                        p.constraints[dim] = AttrConstraint::Interval { lo: *alo, hi: *blo };
                        pieces.push(p);
                    }
                    if bhi < ahi {
                        let mut p = clipped.clone();
                        p.constraints[dim] = AttrConstraint::Interval { lo: *bhi, hi: *ahi };
                        pieces.push(p);
                    }
                    // Clip this dimension to the overlap for later dims.
                    clipped.constraints[dim] = AttrConstraint::Interval {
                        lo: alo.max(*blo),
                        hi: ahi.min(*bhi),
                    };
                }
                (AttrConstraint::Cats(ma), AttrConstraint::Cats(mb)) => {
                    let outside = ma.difference(mb);
                    if !outside.is_empty() {
                        let mut p = clipped.clone();
                        p.constraints[dim] = AttrConstraint::Cats(outside);
                        pieces.push(p);
                    }
                    clipped.constraints[dim] = AttrConstraint::Cats(ma.intersect(mb));
                }
                _ => panic!("mismatched constraint kinds in subtract"),
            }
        }
        pieces
    }

    /// Renders the region's predicate over a schema, e.g.
    /// `age ∈ [30, ∞) ∧ elevel ∈ {0,1} ∧ class = 1`.
    pub fn describe(&self, schema: &Schema) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (i, c) in self.constraints.iter().enumerate() {
            if c.is_full() {
                continue;
            }
            let name = &schema.attr(i).name;
            match c {
                AttrConstraint::Interval { lo, hi } => {
                    parts.push(format!("{name} ∈ [{lo}, {hi})"));
                }
                AttrConstraint::Cats(m) => {
                    let codes: Vec<String> = m.iter().map(|c| c.to_string()).collect();
                    parts.push(format!("{name} ∈ {{{}}}", codes.join(",")));
                }
            }
        }
        if let Some(c) = self.class {
            parts.push(format!("class = {c}"));
        }
        if parts.is_empty() {
            "⊤".to_string()
        } else {
            parts.join(" ∧ ")
        }
    }
}

/// A point-in-box index over a list of boxes: which boxes contain a row,
/// without testing the boxes one by one.
///
/// Per numeric attribute the index holds the sorted distinct finite bounds
/// of all boxes (the *cuts*) and, for every elementary interval between
/// two consecutive cuts, the bitset of the boxes covering it; per
/// categorical attribute it holds one bitset per code. Locating a row
/// takes one binary search per numeric attribute, one lookup per
/// categorical attribute, and an AND of ⌈L/64⌉ words, for `L` boxes. A
/// numeric attribute has at most `2L` cuts, so the index holds at most
/// `(2L + 1) · ⌈L/64⌉` words per numeric attribute (about `L²/4` bytes)
/// and `cardinality · ⌈L/64⌉` words per categorical one — the size of the
/// boxes' own category masks, transposed.
///
/// The boxes found are exactly those whose [`BoxRegion::contains`] admits
/// the row, overlapping boxes included, in ascending order: NaN and +∞
/// lie in no box, −∞ only in boxes whose lower bound is −∞, a box with a
/// NaN or inverted (`lo ≥ hi`) bound contains nothing, and a code a box's
/// mask does not hold is outside it. Where `contains` would panic — a
/// value whose kind differs from the box's constraint — the value lies in
/// no box. Class labels are ignored, as by `contains`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxIndex {
    n_boxes: usize,
    /// Words per bitset: ⌈n_boxes / 64⌉.
    words: usize,
    attrs: Vec<AttrIndex>,
}

/// One attribute's part of a [`BoxIndex`].
#[derive(Debug, Clone, PartialEq)]
struct AttrIndex {
    /// Sorted distinct finite interval bounds (−0.0 and +0.0 are one cut:
    /// `dedup` compares with `==`).
    cuts: Vec<f64>,
    /// `(cuts.len() + 1) × words`: elementary interval `e` spans
    /// `[cuts[e - 1], cuts[e])`, with −∞ before the first cut and +∞ after
    /// the last; its row holds the boxes whose interval covers it.
    spans: Vec<u64>,
    /// `codes × words`: the boxes whose category mask holds each code,
    /// for the codes below the largest cardinality of any box.
    codes: Vec<u64>,
}

impl BoxIndex {
    /// Indexes `boxes`; every box must constrain the same number of
    /// attributes.
    pub fn new(boxes: &[BoxRegion]) -> Self {
        let n_attrs = boxes.first().map_or(0, |b| b.constraints.len());
        assert!(
            boxes.iter().all(|b| b.constraints.len() == n_attrs),
            "boxes over different schemas"
        );
        let words = boxes.len().div_ceil(64);
        let attrs = (0..n_attrs)
            .map(|a| AttrIndex::new(boxes.iter().map(|b| &b.constraints[a]), words))
            .collect();
        Self {
            n_boxes: boxes.len(),
            words,
            attrs,
        }
    }

    /// Number of boxes indexed.
    pub fn len(&self) -> usize {
        self.n_boxes
    }

    /// Whether no box is indexed.
    pub fn is_empty(&self) -> bool {
        self.n_boxes == 0
    }

    /// The first box containing `row`: `boxes.iter().position(|b|
    /// b.contains(row))`.
    pub fn first(&self, row: &[Value]) -> Option<usize> {
        let mut hit = None;
        self.scan(row, |b| {
            hit = Some(b);
            false
        });
        hit
    }

    /// Calls `visit` with every box containing `row`, in ascending order.
    pub fn for_each(&self, row: &[Value], mut visit: impl FnMut(usize)) {
        self.scan(row, |b| {
            visit(b);
            true
        });
    }

    /// Walks the match bitset one word at a time, calling `visit` for each
    /// set bit until it returns `false`. A word's lookups are redone per
    /// word rather than buffered, and stop at the first attribute that
    /// clears it, which for a partition is most of them.
    fn scan(&self, row: &[Value], mut visit: impl FnMut(usize) -> bool) {
        for w in 0..self.words {
            let tail = self.n_boxes - 64 * w;
            let mut acc = if tail < 64 { (1u64 << tail) - 1 } else { !0 };
            for (attr, v) in self.attrs.iter().zip(row) {
                if acc == 0 {
                    break;
                }
                acc &= attr.word(v, w, self.words);
            }
            while acc != 0 {
                if !visit(64 * w + acc.trailing_zeros() as usize) {
                    return;
                }
                acc &= acc - 1;
            }
        }
    }
}

impl AttrIndex {
    fn new<'a>(cons: impl Iterator<Item = &'a AttrConstraint> + Clone, words: usize) -> Self {
        let mut cuts: Vec<f64> = cons
            .clone()
            .filter_map(|c| match c {
                AttrConstraint::Interval { lo, hi } => Some([*lo, *hi]),
                AttrConstraint::Cats(_) => None,
            })
            .flatten()
            .filter(|x| x.is_finite())
            .collect();
        cuts.sort_by(f64::total_cmp);
        cuts.dedup();
        let n_codes = cons
            .clone()
            .filter_map(|c| match c {
                AttrConstraint::Cats(m) => Some(m.cardinality() as usize),
                AttrConstraint::Interval { .. } => None,
            })
            .max()
            .unwrap_or(0);
        let mut spans = vec![0u64; (cuts.len() + 1) * words];
        let mut codes = vec![0u64; n_codes * words];
        for (b, c) in cons.enumerate() {
            let (w, bit) = (b / 64, 1u64 << (b % 64));
            match c {
                AttrConstraint::Interval { lo, hi } => {
                    for e in covered(&cuts, *lo, *hi) {
                        spans[e * words + w] |= bit;
                    }
                }
                AttrConstraint::Cats(m) => {
                    for code in m.iter() {
                        codes[code as usize * words + w] |= bit;
                    }
                }
            }
        }
        Self { cuts, spans, codes }
    }

    /// Word `w` of the bitset of boxes admitting `v` on this attribute.
    fn word(&self, v: &Value, w: usize, words: usize) -> u64 {
        let (table, row) = match *v {
            // NaN and +∞ fail every `x < hi`.
            Value::Num(x) if x < f64::INFINITY => {
                (&self.spans, self.cuts.partition_point(|&c| c <= x))
            }
            Value::Cat(c) if (c as usize) < self.codes.len() / words => (&self.codes, c as usize),
            _ => return 0,
        };
        table[row * words + w]
    }
}

/// The elementary intervals (see [`AttrIndex::spans`]) that `[lo, hi)`
/// covers. Every finite bound is a cut, so the interval covers each
/// elementary interval wholly or not at all; a NaN or inverted bound
/// covers none.
fn covered(cuts: &[f64], lo: f64, hi: f64) -> std::ops::Range<usize> {
    if lo.is_nan() || hi.is_nan() {
        return 0..0;
    }
    let first = if lo == f64::NEG_INFINITY {
        0
    } else {
        cuts.partition_point(|&c| c < lo) + 1
    };
    let end = if hi == f64::INFINITY {
        cuts.len() + 1
    } else {
        cuts.partition_point(|&c| c <= hi)
    };
    first..end.max(first)
}

impl fmt::Display for BoxRegion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, c) in self.constraints.iter().enumerate() {
            if i > 0 {
                write!(f, " ∧ ")?;
            }
            match c {
                AttrConstraint::Interval { lo, hi } => write!(f, "x{i} ∈ [{lo}, {hi})")?,
                AttrConstraint::Cats(m) => {
                    write!(f, "x{i} ∈ {{")?;
                    for (j, code) in m.iter().enumerate() {
                        if j > 0 {
                            write!(f, ",")?;
                        }
                        write!(f, "{code}")?;
                    }
                    write!(f, "}}")?;
                }
            }
        }
        if let Some(c) = self.class {
            write!(f, " ∧ class = {c}")?;
        }
        Ok(())
    }
}

/// Fluent builder for predicate regions (the `Predicate` operator of
/// Section 5: "the predicate region is a subset of the attribute space
/// identified by p").
///
/// # Example
///
/// ```
/// use focus_core::data::Schema;
/// use focus_core::region::BoxBuilder;
/// use std::sync::Arc;
///
/// let schema = Arc::new(Schema::new(vec![
///     Schema::numeric("age"),
///     Schema::categorical("elevel", 5),
/// ]));
/// // The focussing region of the paper's Section 2.3 example: age < 30.
/// let region = BoxBuilder::new(&schema).lt("age", 30.0).build();
/// assert_eq!(region.describe(&schema), "age ∈ [-inf, 30)");
/// ```
#[derive(Debug, Clone)]
pub struct BoxBuilder {
    schema: std::sync::Arc<Schema>,
    region: BoxRegion,
}

impl BoxBuilder {
    /// Starts from the full attribute space.
    pub fn new(schema: &std::sync::Arc<Schema>) -> Self {
        Self {
            schema: std::sync::Arc::clone(schema),
            region: BoxRegion::full(schema),
        }
    }

    fn attr_index(&self, name: &str) -> usize {
        self.schema
            .index_of(name)
            .unwrap_or_else(|| panic!("unknown attribute {name:?}"))
    }

    /// Constrains a numeric attribute to `[lo, hi)`.
    pub fn range(mut self, attr: &str, lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "empty interval [{lo}, {hi})");
        let i = self.attr_index(attr);
        self.region.constraints[i] = AttrConstraint::Interval { lo, hi };
        self
    }

    /// Constrains a numeric attribute to `(-∞, hi)`.
    pub fn lt(self, attr: &str, hi: f64) -> Self {
        self.range(attr, f64::NEG_INFINITY, hi)
    }

    /// Constrains a numeric attribute to `[lo, ∞)`.
    pub fn ge(self, attr: &str, lo: f64) -> Self {
        self.range(attr, lo, f64::INFINITY)
    }

    /// Constrains a categorical attribute to the given codes.
    pub fn cats(mut self, attr: &str, codes: &[u32]) -> Self {
        let i = self.attr_index(attr);
        let card = match &self.schema.attr(i).ty {
            AttrType::Categorical { cardinality } => *cardinality,
            AttrType::Numeric => panic!("attribute {attr:?} is numeric, not categorical"),
        };
        self.region.constraints[i] = AttrConstraint::Cats(CatMask::of(card, codes));
        self
    }

    /// Restricts to a class label.
    pub fn class(mut self, c: u32) -> Self {
        self.region.class = Some(c);
        self
    }

    /// Finishes the build.
    pub fn build(self) -> BoxRegion {
        self.region
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Schema::numeric("age"),
            Schema::numeric("salary"),
            Schema::categorical("elevel", 5),
        ]))
    }

    #[test]
    fn schema_mismatch_names_the_first_difference() {
        let full = |attrs| BoxRegion::full(&Schema::new(attrs));
        let base = BoxRegion::full(&schema());
        let narrow = BoxBuilder::new(&schema()).lt("age", 30.0).build();
        assert_eq!(base.schema_mismatch(&narrow), None);
        let cases = [
            (
                vec![Schema::numeric("age"), Schema::numeric("salary")],
                "3 vs 2 attributes",
            ),
            (
                vec![
                    Schema::numeric("age"),
                    Schema::categorical("salary", 5),
                    Schema::categorical("elevel", 5),
                ],
                "attribute 1 is numeric in one and categorical in the other",
            ),
            (
                vec![
                    Schema::numeric("age"),
                    Schema::numeric("salary"),
                    Schema::categorical("elevel", 4),
                ],
                "attribute 2 has 5 vs 4 categories",
            ),
        ];
        for (attrs, want) in cases {
            assert_eq!(base.schema_mismatch(&full(attrs)).as_deref(), Some(want));
        }
    }

    #[test]
    fn catmask_full_and_partial_words() {
        let m = CatMask::full(5);
        assert_eq!(m.count(), 5);
        assert!(m.contains(4));
        assert!(!m.contains(5));
        let big = CatMask::full(130);
        assert_eq!(big.count(), 130);
        assert!(big.contains(129));
    }

    #[test]
    fn catmask_ops() {
        let a = CatMask::of(10, &[1, 2, 3]);
        let b = CatMask::of(10, &[3, 4]);
        assert_eq!(a.intersect(&b).iter().collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.difference(&b).iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(a.intersect(&CatMask::empty(10)).is_empty());
    }

    #[test]
    fn interval_intersection() {
        let a = AttrConstraint::Interval { lo: 0.0, hi: 10.0 };
        let b = AttrConstraint::Interval { lo: 5.0, hi: 20.0 };
        match a.intersect(&b) {
            Some(AttrConstraint::Interval { lo, hi }) => {
                assert_eq!((lo, hi), (5.0, 10.0));
            }
            _ => panic!("expected interval"),
        }
        let c = AttrConstraint::Interval { lo: 10.0, hi: 20.0 };
        assert!(a.intersect(&c).is_none(), "half-open: [0,10) ∩ [10,20) = ∅");
    }

    #[test]
    fn box_contains_and_class() {
        let s = schema();
        let r = BoxBuilder::new(&s)
            .lt("age", 30.0)
            .ge("salary", 100_000.0)
            .cats("elevel", &[0, 1])
            .build();
        let row = [Value::Num(25.0), Value::Num(120_000.0), Value::Cat(1)];
        assert!(r.contains(&row));
        let row2 = [Value::Num(35.0), Value::Num(120_000.0), Value::Cat(1)];
        assert!(!r.contains(&row2));
        let rc = r.with_class(1);
        assert!(rc.contains_labeled(&row, 1));
        assert!(!rc.contains_labeled(&row, 0));
        // A class-free box admits any label.
        assert!(r.contains_labeled(&row, 0));
    }

    #[test]
    fn box_intersection_with_classes() {
        let s = schema();
        let a = BoxBuilder::new(&s).lt("age", 50.0).class(0).build();
        let b = BoxBuilder::new(&s).ge("age", 30.0).class(0).build();
        let c = a.intersect(&b).expect("non-empty");
        assert_eq!(c.class, Some(0));
        assert!(c.contains(&[Value::Num(40.0), Value::Num(0.0), Value::Cat(0)]));
        assert!(!c.contains(&[Value::Num(20.0), Value::Num(0.0), Value::Cat(0)]));
        let d = BoxBuilder::new(&s).class(1).build();
        assert!(a.intersect(&d).is_none(), "conflicting classes are empty");
    }

    #[test]
    fn box_subtract_1d() {
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = BoxBuilder::new(&s).range("x", 0.0, 10.0).build();
        let b = BoxBuilder::new(&s).range("x", 3.0, 7.0).build();
        let pieces = a.subtract(&b);
        assert_eq!(pieces.len(), 2);
        // Pieces are [0,3) and [7,10); disjoint from b and from each other.
        for p in &pieces {
            assert!(p.intersect(&b).is_none());
        }
        assert!(pieces[0].intersect(&pieces[1]).is_none());
    }

    #[test]
    fn box_subtract_2d_cross() {
        let s = Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::numeric("y"),
        ]));
        let a = BoxBuilder::new(&s)
            .range("x", 0.0, 10.0)
            .range("y", 0.0, 10.0)
            .build();
        let b = BoxBuilder::new(&s)
            .range("x", 4.0, 6.0)
            .range("y", 4.0, 6.0)
            .build();
        let pieces = a.subtract(&b);
        assert_eq!(pieces.len(), 4);
        // All pieces disjoint from b and pairwise disjoint.
        for (i, p) in pieces.iter().enumerate() {
            assert!(p.intersect(&b).is_none());
            for q in &pieces[i + 1..] {
                assert!(p.intersect(q).is_none());
            }
        }
        // The hole's corners are not covered, its outside is.
        let covered = |x: f64, y: f64| {
            pieces
                .iter()
                .any(|p| p.contains(&[Value::Num(x), Value::Num(y)]))
        };
        assert!(covered(1.0, 1.0));
        assert!(covered(5.0, 1.0));
        assert!(!covered(5.0, 5.0));
    }

    #[test]
    fn box_subtract_disjoint_returns_self() {
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = BoxBuilder::new(&s).range("x", 0.0, 1.0).build();
        let b = BoxBuilder::new(&s).range("x", 5.0, 6.0).build();
        assert_eq!(a.subtract(&b), vec![a.clone()]);
    }

    #[test]
    fn box_subtract_categorical() {
        let s = Arc::new(Schema::new(vec![Schema::categorical("c", 4)]));
        let a = BoxBuilder::new(&s).cats("c", &[0, 1, 2]).build();
        let b = BoxBuilder::new(&s).cats("c", &[1]).build();
        let pieces = a.subtract(&b);
        assert_eq!(pieces.len(), 1);
        assert!(pieces[0].contains(&[Value::Cat(0)]));
        assert!(pieces[0].contains(&[Value::Cat(2)]));
        assert!(!pieces[0].contains(&[Value::Cat(1)]));
    }

    #[test]
    fn describe_pretty_prints() {
        let s = schema();
        let r = BoxBuilder::new(&s).lt("age", 30.0).class(1).build();
        assert_eq!(r.describe(&s), "age ∈ [-inf, 30) ∧ class = 1");
        assert_eq!(BoxRegion::full(&s).describe(&s), "⊤");
    }

    /// Bounds drawn so that cuts collide across boxes, with ±0.0 as
    /// distinct bit patterns.
    const ANCHORS: [f64; 7] = [-2.0, -1.0, -0.0, 0.0, 0.5, 1.0, 3.0];

    fn random_bound(rng: &mut impl Rng) -> f64 {
        match rng.gen_range(0..12u32) {
            0 => f64::NEG_INFINITY,
            1 => f64::INFINITY,
            2 => f64::NAN,
            _ => ANCHORS[rng.gen_range(0..ANCHORS.len())],
        }
    }

    /// `n` boxes over `schema`. Overlapping boxes draw every bound at
    /// random (so some are NaN or inverted); disjoint ones additionally
    /// pin attribute 0 (numeric) to `[b, b + 1)` for box `b`.
    fn random_boxes(
        schema: &Schema,
        n: usize,
        disjoint: bool,
        rng: &mut impl Rng,
    ) -> Vec<BoxRegion> {
        (0..n)
            .map(|b| {
                let constraints = schema
                    .attrs()
                    .iter()
                    .enumerate()
                    .map(|(a, attr)| match attr.ty {
                        AttrType::Numeric if disjoint && a == 0 => AttrConstraint::Interval {
                            lo: b as f64,
                            hi: b as f64 + 1.0,
                        },
                        AttrType::Numeric if rng.gen_bool(0.2) => AttrConstraint::full(&attr.ty),
                        AttrType::Numeric => AttrConstraint::Interval {
                            lo: random_bound(rng),
                            hi: random_bound(rng),
                        },
                        AttrType::Categorical { cardinality } => {
                            let codes: Vec<u32> =
                                (0..cardinality).filter(|_| rng.gen_bool(0.6)).collect();
                            AttrConstraint::Cats(CatMask::of(cardinality, &codes))
                        }
                    })
                    .collect();
                BoxRegion {
                    constraints,
                    class: None,
                }
            })
            .collect()
    }

    /// Probe values per attribute: every bound the boxes use, NaN, ±∞ and
    /// ±0.0 for numeric attributes; every code, the codes just past the
    /// cardinality and `u32::MAX` for categorical ones.
    fn probe_values(schema: &Schema, boxes: &[BoxRegion]) -> Vec<Vec<Value>> {
        schema
            .attrs()
            .iter()
            .enumerate()
            .map(|(a, attr)| match attr.ty {
                AttrType::Numeric => {
                    let mut xs = vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 0.25];
                    for b in boxes {
                        if let AttrConstraint::Interval { lo, hi } = b.constraints[a] {
                            xs.extend([lo, hi, lo + 0.5]);
                        }
                    }
                    xs.into_iter().map(Value::Num).collect()
                }
                AttrType::Categorical { cardinality } => (0..cardinality + 2)
                    .chain([u32::MAX])
                    .map(Value::Cat)
                    .collect(),
            })
            .collect()
    }

    /// Checks the index against the linear scan on `row`.
    fn check_row(index: &BoxIndex, boxes: &[BoxRegion], row: &[Value]) {
        let want: Vec<usize> = (0..boxes.len())
            .filter(|&b| boxes[b].contains(row))
            .collect();
        assert_eq!(
            index.first(row),
            boxes.iter().position(|b| b.contains(row)),
            "{row:?}"
        );
        let mut got = Vec::new();
        index.for_each(row, |b| got.push(b));
        assert_eq!(got, want, "{row:?}");
    }

    #[test]
    fn intersects_agrees_with_intersect() {
        // `gcr_partition` builds a cell exactly for the leaf pairs
        // `intersects` admits, so the two must never disagree.
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let schema = Schema::new(vec![
            Schema::numeric("x"),
            Schema::categorical("c", 5),
            Schema::numeric("y"),
            Schema::categorical("wide", 70),
        ]);
        let mut rng = StdRng::seed_from_u64(5);
        let mut boxes = random_boxes(&schema, 40, false, &mut rng);
        for (b, class) in boxes
            .iter_mut()
            .zip([None, Some(0), Some(1)].into_iter().cycle())
        {
            b.class = class;
        }
        let mut overlaps = 0;
        for a in &boxes {
            for b in &boxes {
                assert_eq!(a.intersects(b), a.intersect(b).is_some(), "{a:?} {b:?}");
                overlaps += usize::from(a.intersects(b));
            }
        }
        assert!((1..40 * 40).contains(&overlaps), "{overlaps}");
    }

    #[test]
    fn box_index_matches_linear_scan() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let schemas = [
            Schema::new(vec![
                Schema::numeric("x"),
                Schema::categorical("c", 5),
                Schema::numeric("y"),
                Schema::categorical("wide", 70),
            ]),
            Schema::new(vec![Schema::numeric("x"), Schema::numeric("y")]),
            Schema::new(vec![Schema::numeric("x"), Schema::categorical("c", 3)]),
        ];
        let mut rng = StdRng::seed_from_u64(21);
        for schema in &schemas {
            // 256 and 257 boxes fill four bitset words and spill into a fifth.
            for n in [0, 1, 63, 64, 65, 200, 256, 257] {
                for disjoint in [false, true] {
                    let boxes = random_boxes(schema, n, disjoint, &mut rng);
                    let index = BoxIndex::new(&boxes);
                    let probes = probe_values(schema, &boxes);
                    // Every probe value of every attribute, the others random.
                    for a in 0..schema.len() {
                        for v in &probes[a] {
                            let mut row: Vec<Value> = probes
                                .iter()
                                .map(|p| p[rng.gen_range(0..p.len())])
                                .collect();
                            row[a] = *v;
                            check_row(&index, &boxes, &row);
                        }
                    }
                    // Rows inside boxes, so multi-box matches occur.
                    for b in boxes.iter().take(20) {
                        let row: Vec<Value> = b
                            .constraints
                            .iter()
                            .map(|c| match c {
                                AttrConstraint::Interval { lo, .. } if lo.is_finite() => {
                                    Value::Num(*lo)
                                }
                                AttrConstraint::Interval { hi, .. } => {
                                    Value::Num(hi.min(0.0) - 1.0)
                                }
                                AttrConstraint::Cats(m) => Value::Cat(m.iter().next().unwrap_or(0)),
                            })
                            .collect();
                        check_row(&index, &boxes, &row);
                    }
                }
            }
        }
    }

    #[test]
    fn box_index_edge_cases() {
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let interval = |lo: f64, hi: f64| BoxRegion {
            constraints: vec![AttrConstraint::Interval { lo, hi }],
            class: None,
        };
        // Boxes with a NaN or inverted bound contain nothing, not even
        // their own bounds; −∞ lies only in boxes that start at −∞.
        let boxes = vec![
            interval(f64::NAN, 1.0),
            interval(0.0, f64::NAN),
            interval(1.0, 1.0),
            interval(2.0, -2.0),
            interval(f64::INFINITY, f64::INFINITY),
            interval(f64::NEG_INFINITY, f64::NEG_INFINITY),
            interval(-0.0, 0.5),
            BoxBuilder::new(&s).build(),
        ];
        let index = BoxIndex::new(&boxes);
        let matches = |x: f64| {
            let mut got = Vec::new();
            index.for_each(&[Value::Num(x)], |b| got.push(b));
            got
        };
        assert_eq!(matches(0.0), vec![6, 7]);
        assert_eq!(matches(-0.0), vec![6, 7], "−0.0 == 0.0");
        assert_eq!(matches(1.0), vec![7]);
        assert_eq!(matches(f64::NEG_INFINITY), vec![7]);
        assert_eq!(matches(f64::INFINITY), Vec::<usize>::new());
        assert_eq!(matches(f64::NAN), Vec::<usize>::new());
        // An empty list locates nothing; a zero-attribute box holds every row.
        assert_eq!(BoxIndex::new(&[]).first(&[Value::Num(0.0)]), None);
        let none = Schema::new(Vec::new());
        let everywhere = vec![BoxRegion::full(&none); 65];
        let index = BoxIndex::new(&everywhere);
        assert_eq!(index.first(&[]), Some(0));
        let mut n = 0;
        index.for_each(&[], |_| n += 1);
        assert_eq!(n, 65);
        // A value of the wrong kind lies in no box (the linear scan panics).
        assert_eq!(BoxIndex::new(&boxes).first(&[Value::Cat(0)]), None);
    }

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn builder_rejects_unknown_attribute() {
        BoxBuilder::new(&schema()).lt("wage", 1.0);
    }
}
