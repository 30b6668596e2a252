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

    #[test]
    #[should_panic(expected = "unknown attribute")]
    fn builder_rejects_unknown_attribute() {
        BoxBuilder::new(&schema()).lt("wage", 1.0);
    }
}
