//! Split search: Gini impurity, numeric threshold splits, categorical
//! subset splits.

use crate::lists::{Column, Entry, NodeLists};
use focus_core::data::Value;
use focus_core::region::CatMask;
use focus_exec::{map_indices, Parallelism};

/// Gini impurity of a class-count vector: `1 − Σ pᵢ²`.
/// Zero for a pure node; maximal (`1 − 1/k`) for a uniform one.
pub fn gini(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    1.0 - counts
        .iter()
        .map(|&c| {
            let p = c as f64 / t;
            p * p
        })
        .sum::<f64>()
}

/// Weighted Gini impurity of a binary split.
pub(crate) fn split_impurity(left: &[u64], right: &[u64]) -> f64 {
    let nl: u64 = left.iter().sum();
    let nr: u64 = right.iter().sum();
    let n = (nl + nr) as f64;
    if n == 0.0 {
        return 0.0;
    }
    (nl as f64 / n) * gini(left) + (nr as f64 / n) * gini(right)
}

/// A binary split rule on one attribute.
#[derive(Debug, Clone, PartialEq)]
pub enum SplitRule {
    /// Numeric split: rows with `value < threshold` go left.
    Threshold {
        /// Attribute index in the schema.
        attr: usize,
        /// The split threshold.
        threshold: f64,
    },
    /// Categorical split: rows whose code is in `mask` go left.
    Categories {
        /// Attribute index in the schema.
        attr: usize,
        /// Codes routed to the left child.
        mask: CatMask,
    },
}

impl SplitRule {
    /// True if `row` is routed to the left child.
    pub fn goes_left(&self, row: &[Value]) -> bool {
        match self {
            SplitRule::Threshold { attr, threshold } => row[*attr].as_num() < *threshold,
            SplitRule::Categories { attr, mask } => mask.contains(row[*attr].as_cat()),
        }
    }
}

/// A candidate split with its quality.
#[derive(Debug, Clone)]
pub(crate) struct Candidate {
    /// The split rule.
    pub(crate) rule: SplitRule,
    /// Weighted Gini impurity after the split (lower is better).
    pub(crate) impurity: f64,
}

/// Finds the best split of a node over all attributes, with the
/// per-attribute evaluations fanned out over `par` worker threads.
/// `counts` are the node's class counts and `labels` the table's classes.
/// Returns `None` when no split leaves at least `min_leaf` rows on each
/// side.
///
/// Each attribute's sweep is an independent unit of work whose result is a
/// single candidate; the candidates come back in attribute order and are
/// folded with a strict `<` comparison, so the earlier attribute wins ties
/// and the chosen split is identical for every thread count.
pub(crate) fn best_split(
    node: &NodeLists<'_>,
    labels: &[u32],
    counts: &[u64],
    min_leaf: usize,
    par: Parallelism,
) -> Option<Candidate> {
    let candidates = map_indices(par, node.columns.len(), |attr| match &node.columns[attr] {
        Column::Num(list) => best_numeric_split(list, attr, counts, min_leaf),
        Column::Cat { codes, cardinality } => best_categorical_split(
            node.rows,
            codes,
            labels,
            attr,
            *cardinality,
            min_leaf,
            counts.len(),
        ),
    });
    let mut best: Option<Candidate> = None;
    for c in candidates.into_iter().flatten() {
        if best.as_ref().is_none_or(|b| c.impurity < b.impurity) {
            best = Some(c);
        }
    }
    best
}

/// Best threshold split on a numeric attribute: sweep the node's sorted
/// list with prefix class counts, and evaluate a split at every boundary
/// between distinct values (threshold = midpoint).
fn best_numeric_split(
    list: &[Entry],
    attr: usize,
    counts: &[u64],
    min_leaf: usize,
) -> Option<Candidate> {
    let mut left = vec![0u64; counts.len()];
    let mut right = counts.to_vec();
    let mut best: Option<Candidate> = None;
    for (i, pair) in list.windows(2).enumerate() {
        let (e, v_next) = (pair[0], pair[1].value);
        let label = e.label as usize;
        left[label] += 1;
        right[label] -= 1;
        if e.value == v_next {
            continue; // can't split between equal values
        }
        let nl = i + 1;
        let nr = list.len() - nl;
        if nl < min_leaf || nr < min_leaf {
            continue;
        }
        let imp = split_impurity(&left, &right);
        if best.as_ref().is_none_or(|b| imp < b.impurity) {
            best = Some(Candidate {
                rule: SplitRule::Threshold {
                    attr,
                    threshold: (e.value + v_next) / 2.0,
                },
                impurity: imp,
            });
        }
    }
    best
}

/// Best subset split on a categorical attribute, counted over the node's
/// `rows` through the attribute's code column.
///
/// For two classes, the CART ordering trick is exact: order categories by
/// their class-1 proportion and only evaluate prefix partitions. For more
/// classes, fall back to singleton splits (`{v}` vs rest).
fn best_categorical_split(
    rows: &[u32],
    codes: &[u32],
    labels: &[u32],
    attr: usize,
    cardinality: u32,
    min_leaf: usize,
    k: usize,
) -> Option<Candidate> {
    // Per-category class counts.
    let mut cat_counts = vec![0u64; cardinality as usize * k];
    for &r in rows {
        let r = r as usize;
        cat_counts[codes[r] as usize * k + labels[r] as usize] += 1;
    }
    let present: Vec<u32> = (0..cardinality)
        .filter(|&c| (0..k).any(|j| cat_counts[c as usize * k + j] > 0))
        .collect();
    if present.len() < 2 {
        return None;
    }

    let eval_mask = |mask: &CatMask| -> Option<Candidate> {
        let mut left = vec![0u64; k];
        let mut right = vec![0u64; k];
        for &c in &present {
            let side = if mask.contains(c) {
                &mut left
            } else {
                &mut right
            };
            for j in 0..k {
                side[j] += cat_counts[c as usize * k + j];
            }
        }
        let nl: u64 = left.iter().sum();
        let nr: u64 = right.iter().sum();
        if (nl as usize) < min_leaf || (nr as usize) < min_leaf {
            return None;
        }
        Some(Candidate {
            rule: SplitRule::Categories {
                attr,
                mask: mask.clone(),
            },
            impurity: split_impurity(&left, &right),
        })
    };

    let mut best: Option<Candidate> = None;
    let mut consider = |c: Option<Candidate>| {
        if let Some(c) = c {
            if best.as_ref().is_none_or(|b| c.impurity < b.impurity) {
                best = Some(c);
            }
        }
    };

    if k == 2 {
        // Order by class-1 proportion; prefix partitions are optimal.
        let mut ordered = present.clone();
        ordered.sort_by(|&a, &b| {
            let pa = proportion(&cat_counts, a as usize, k);
            let pb = proportion(&cat_counts, b as usize, k);
            pa.partial_cmp(&pb).expect("finite proportions")
        });
        for cut in 1..ordered.len() {
            let mask = CatMask::of(cardinality, &ordered[..cut]);
            consider(eval_mask(&mask));
        }
    } else {
        for &c in &present {
            let mask = CatMask::of(cardinality, &[c]);
            consider(eval_mask(&mask));
        }
    }
    best
}

pub(crate) fn proportion(cat_counts: &[u64], code: usize, k: usize) -> f64 {
    let total: u64 = (0..k).map(|j| cat_counts[code * k + j]).sum();
    if total == 0 {
        0.0
    } else {
        cat_counts[code * k + 1] as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lists::Presorted;
    use focus_core::data::{LabeledTable, Schema};
    use std::sync::Arc;

    /// Every split test runs sequentially and on 2–4 worker threads: the
    /// chosen split must not depend on the fan-out.
    fn every_par() -> impl Iterator<Item = Parallelism> {
        std::iter::once(Parallelism::Sequential).chain((2..=4).map(Parallelism::Threads))
    }

    /// `best_split` over all rows of `data`.
    fn split_all(data: &LabeledTable, min_leaf: usize, par: Parallelism) -> Option<Candidate> {
        let mut counts = vec![0u64; data.n_classes as usize];
        for &c in &data.labels {
            counts[c as usize] += 1;
        }
        let mut lists = Presorted::new(data, par);
        best_split(&lists.root(), &data.labels, &counts, min_leaf, par)
    }

    #[test]
    fn gini_values() {
        assert_eq!(gini(&[10, 0]), 0.0);
        assert!((gini(&[5, 5]) - 0.5).abs() < 1e-12);
        assert!((gini(&[1, 1, 1, 1]) - 0.75).abs() < 1e-12);
        assert_eq!(gini(&[0, 0]), 0.0);
    }

    fn numeric_data(pairs: &[(f64, u32)]) -> LabeledTable {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut t = LabeledTable::new(schema, 2);
        for &(x, c) in pairs {
            t.push_row(&[Value::Num(x)], c);
        }
        t
    }

    #[test]
    fn numeric_split_finds_clean_boundary() {
        let data = numeric_data(&[
            (1.0, 0),
            (2.0, 0),
            (3.0, 0),
            (10.0, 1),
            (11.0, 1),
            (12.0, 1),
        ]);
        for par in every_par() {
            let c = split_all(&data, 1, par).expect("split");
            match c.rule {
                SplitRule::Threshold { attr, threshold } => {
                    assert_eq!(attr, 0);
                    assert!((3.0..=10.0).contains(&threshold), "t = {threshold}");
                }
                _ => panic!("expected numeric split"),
            }
            assert_eq!(c.impurity, 0.0, "clean boundary → pure children");
        }
    }

    #[test]
    fn numeric_split_respects_min_leaf() {
        let data = numeric_data(&[(1.0, 0), (2.0, 0), (3.0, 0), (10.0, 1)]);
        for par in every_par() {
            // min_leaf = 2 forbids the perfect 3/1 split; the best legal split is 2/2.
            let c = split_all(&data, 2, par).expect("split");
            match c.rule {
                SplitRule::Threshold { threshold, .. } => {
                    assert!((2.0..3.0).contains(&threshold), "t = {threshold}");
                }
                _ => panic!("expected numeric split"),
            }
        }
    }

    #[test]
    fn no_split_when_constant_attribute() {
        let data = numeric_data(&[(5.0, 0), (5.0, 1), (5.0, 0)]);
        for par in every_par() {
            assert!(split_all(&data, 1, par).is_none());
        }
    }

    fn categorical_data(pairs: &[(u32, u32)], card: u32) -> LabeledTable {
        let schema = Arc::new(Schema::new(vec![Schema::categorical("c", card)]));
        let mut t = LabeledTable::new(schema, 2);
        for &(v, c) in pairs {
            t.push_row(&[Value::Cat(v)], c);
        }
        t
    }

    #[test]
    fn categorical_split_two_class_subset() {
        // Categories 0 and 2 are pure class 0; categories 1 and 3 pure
        // class 1. The ordering trick must find a perfect subset split even
        // though no single category separates the data.
        let data = categorical_data(
            &[
                (0, 0),
                (0, 0),
                (2, 0),
                (2, 0),
                (1, 1),
                (1, 1),
                (3, 1),
                (3, 1),
            ],
            4,
        );
        for par in every_par() {
            let c = split_all(&data, 1, par).expect("split");
            assert_eq!(c.impurity, 0.0);
            match &c.rule {
                SplitRule::Categories { mask, .. } => {
                    // One side = {0, 2}, the other = {1, 3}.
                    assert_eq!(mask.contains(0), mask.contains(2));
                    assert_eq!(mask.contains(1), mask.contains(3));
                    assert_ne!(mask.contains(0), mask.contains(1));
                }
                _ => panic!("expected categorical split"),
            }
        }
    }

    #[test]
    fn categorical_split_single_category_cannot_split() {
        let data = categorical_data(&[(1, 0), (1, 1), (1, 0)], 4);
        for par in every_par() {
            assert!(split_all(&data, 1, par).is_none());
        }
    }

    #[test]
    fn split_rule_routing() {
        let t = SplitRule::Threshold {
            attr: 0,
            threshold: 5.0,
        };
        assert!(t.goes_left(&[Value::Num(4.9)]));
        assert!(!t.goes_left(&[Value::Num(5.0)]));
        let m = SplitRule::Categories {
            attr: 0,
            mask: CatMask::of(4, &[1, 2]),
        };
        assert!(m.goes_left(&[Value::Cat(1)]));
        assert!(!m.goes_left(&[Value::Cat(0)]));
    }

    #[test]
    fn picks_most_informative_attribute() {
        // Attribute 0 is noise; attribute 1 separates perfectly.
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("noise"),
            Schema::numeric("signal"),
        ]));
        let mut data = LabeledTable::new(schema, 2);
        for i in 0..40 {
            let noise = (i % 7) as f64;
            let signal = if i % 2 == 0 { 0.0 } else { 10.0 };
            data.push_row(&[Value::Num(noise), Value::Num(signal)], (i % 2) as u32);
        }
        for par in every_par() {
            let c = split_all(&data, 1, par).expect("split");
            match c.rule {
                SplitRule::Threshold { attr, .. } => assert_eq!(attr, 1),
                _ => panic!("expected numeric split"),
            }
        }
    }

    #[test]
    fn tied_attributes_pick_the_first() {
        // Two identical attributes give identical candidates: the earlier
        // attribute must win the tie whichever worker evaluated which.
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("a"),
            Schema::numeric("b"),
        ]));
        let mut data = LabeledTable::new(schema, 2);
        for i in 0..20 {
            let x = i as f64;
            data.push_row(&[Value::Num(x), Value::Num(x)], u32::from(i < 8));
        }
        for par in every_par() {
            let c = split_all(&data, 1, par).expect("split");
            assert_eq!(c.impurity, 0.0);
            match c.rule {
                SplitRule::Threshold { attr, .. } => assert_eq!(attr, 0, "{par:?}"),
                _ => panic!("expected numeric split"),
            }
        }
    }
}
