//! 2-component models (Definition 3.3).
//!
//! A model `M` induced by a dataset `D` is described as
//! `⟨Γ_M, Σ(Γ_M, D)⟩`: a *structural component* `Γ_M` (set of regions) and a
//! *measure component* (the selectivity of each region w.r.t. `D`). This
//! module defines the three model classes of the paper and the measure
//! (selectivity) computations that extend a structure over a dataset —
//! the "single scan of the underlying datasets" of Section 3.3.1.

use crate::data::{LabeledTable, Table, TransactionSet};
use crate::region::{BoxRegion, Itemset};
use focus_exec::{map_chunks, merge_counts, Parallelism};
use std::collections::HashMap;

/// Minimum rows per worker chunk for the counting scans: below this,
/// thread-spawn overhead exceeds the scan itself and the scan runs inline.
pub(crate) const SCAN_GRAIN: usize = focus_exec::DEFAULT_GRAIN;

/// A lits-model: the set of frequent itemsets of a transaction dataset at a
/// minimum-support level, with their supports (Section 2.2).
#[derive(Debug, Clone, PartialEq)]
pub struct LitsModel {
    /// Structural component: frequent itemsets, in canonical (sorted) order.
    itemsets: Vec<Itemset>,
    /// Measure component: support (selectivity) of each itemset.
    supports: Vec<f64>,
    /// The minimum support threshold `ms` the model was mined at.
    minsup: f64,
    /// Number of transactions in the inducing dataset.
    n_transactions: u64,
}

impl LitsModel {
    /// Assembles a lits-model from parallel itemset/support vectors.
    /// The itemsets are put into canonical order.
    pub fn new(
        itemsets: Vec<Itemset>,
        supports: Vec<f64>,
        minsup: f64,
        n_transactions: u64,
    ) -> Self {
        assert_eq!(itemsets.len(), supports.len(), "parallel vectors");
        assert!(
            (0.0..=1.0).contains(&minsup),
            "minsup must be a fraction, got {minsup}"
        );
        let mut pairs: Vec<(Itemset, f64)> = itemsets.into_iter().zip(supports).collect();
        pairs.sort_by(|a, b| a.0.cmp(&b.0));
        pairs.dedup_by(|a, b| a.0 == b.0);
        let (itemsets, supports) = pairs.into_iter().unzip();
        Self {
            itemsets,
            supports,
            minsup,
            n_transactions,
        }
    }

    /// Structural component `Γ_M`: the frequent itemsets in canonical order.
    pub fn itemsets(&self) -> &[Itemset] {
        &self.itemsets
    }

    /// Measure component, parallel to [`Self::itemsets`].
    pub fn supports(&self) -> &[f64] {
        &self.supports
    }

    /// The minimum support level the model was mined at.
    pub fn minsup(&self) -> f64 {
        self.minsup
    }

    /// Number of transactions in the inducing dataset.
    pub fn n_transactions(&self) -> u64 {
        self.n_transactions
    }

    /// Number of itemsets in the structural component.
    pub fn len(&self) -> usize {
        self.itemsets.len()
    }

    /// True if the model has no frequent itemsets.
    pub fn is_empty(&self) -> bool {
        self.itemsets.is_empty()
    }

    /// The support of `x` if `x` is in the structural component.
    pub fn support_of(&self, x: &Itemset) -> Option<f64> {
        self.itemsets
            .binary_search(x)
            .ok()
            .map(|i| self.supports[i])
    }
}

/// A dt-model: the partition of the attribute space induced by a decision
/// tree's leaves, with per-(leaf, class) measures (Section 2.1).
///
/// Each leaf corresponds to `k` regions (one per class) which differ only in
/// the class label; the measure of region `(leaf, class)` is the fraction of
/// the dataset that falls in the leaf *and* has that class.
#[derive(Debug, Clone, PartialEq)]
pub struct DtModel {
    /// Leaf cells (class-free boxes) partitioning the attribute space.
    leaves: Vec<BoxRegion>,
    /// Number of classes `k`.
    n_classes: u32,
    /// Row-major measures: `measures[leaf * k + class]`, each in `[0, 1]`,
    /// summing to 1 over all entries (when induced from a dataset).
    measures: Vec<f64>,
    /// Number of rows in the inducing dataset.
    n_rows: u64,
}

impl DtModel {
    /// Assembles a dt-model. `measures` must have `leaves.len() * n_classes`
    /// entries in row-major `[leaf][class]` order.
    pub fn new(leaves: Vec<BoxRegion>, n_classes: u32, measures: Vec<f64>, n_rows: u64) -> Self {
        assert!(n_classes > 0);
        assert_eq!(
            measures.len(),
            leaves.len() * n_classes as usize,
            "measure vector must be leaves × classes"
        );
        assert!(
            leaves.iter().all(|l| l.class.is_none()),
            "leaf cells must be class-free; classes are the measure rows"
        );
        Self {
            leaves,
            n_classes,
            measures,
            n_rows,
        }
    }

    /// The leaf cells (class-free partition of the attribute space).
    pub fn leaves(&self) -> &[BoxRegion] {
        &self.leaves
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Row-major `[leaf][class]` measures.
    pub fn measures(&self) -> &[f64] {
        &self.measures
    }

    /// Number of rows in the inducing dataset.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }

    /// The measure of region `(leaf, class)`.
    pub fn measure(&self, leaf: usize, class: u32) -> f64 {
        self.measures[leaf * self.n_classes as usize + class as usize]
    }

    /// The full structural component in the paper's sense: every leaf
    /// crossed with every class label.
    pub fn class_regions(&self) -> Vec<BoxRegion> {
        let mut out = Vec::with_capacity(self.leaves.len() * self.n_classes as usize);
        for leaf in &self.leaves {
            for c in 0..self.n_classes {
                out.push(leaf.with_class(c));
            }
        }
        out
    }

    /// Index of the leaf containing `row`, if any. Leaves partition the
    /// space, so at most one matches.
    pub fn locate(&self, row: &[crate::data::Value]) -> Option<usize> {
        self.leaves.iter().position(|l| l.contains(row))
    }

    /// Majority-class prediction for `row` (ties break to the lower class).
    /// Rows outside every leaf (impossible for a real tree partition) map to
    /// class 0.
    pub fn predict(&self, row: &[crate::data::Value]) -> u32 {
        match self.locate(row) {
            None => 0,
            Some(leaf) => {
                let k = self.n_classes as usize;
                let slice = &self.measures[leaf * k..(leaf + 1) * k];
                let mut best = 0usize;
                for (c, &m) in slice.iter().enumerate() {
                    if m > slice[best] {
                        best = c;
                    }
                }
                best as u32
            }
        }
    }
}

/// A cluster-model: a set of (possibly non-exhaustive) cluster regions with
/// their selectivities (Section 2.4).
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterModel {
    /// Cluster regions (class-free boxes; may leave space uncovered).
    clusters: Vec<BoxRegion>,
    /// Selectivity of each cluster region.
    measures: Vec<f64>,
    /// Number of rows in the inducing dataset.
    n_rows: u64,
}

impl ClusterModel {
    /// Assembles a cluster-model from parallel region/measure vectors.
    pub fn new(clusters: Vec<BoxRegion>, measures: Vec<f64>, n_rows: u64) -> Self {
        assert_eq!(clusters.len(), measures.len(), "parallel vectors");
        Self {
            clusters,
            measures,
            n_rows,
        }
    }

    /// The cluster regions.
    pub fn clusters(&self) -> &[BoxRegion] {
        &self.clusters
    }

    /// Selectivity of each cluster region.
    pub fn measures(&self) -> &[f64] {
        &self.measures
    }

    /// Number of rows in the inducing dataset.
    pub fn n_rows(&self) -> u64 {
        self.n_rows
    }
}

// ---------------------------------------------------------------------------
// Measure computation: extending a structure over a dataset (one scan).
// ---------------------------------------------------------------------------

/// Counts, for each itemset, the number of supporting transactions, with
/// the scan's row range fanned out over `par` worker threads.
///
/// One scan of the dataset: each transaction is turned into an item bitmap
/// and tested against every itemset with early exit. Per-chunk counters are
/// merged by `u64` addition in chunk order, so the result is bit-identical
/// to the sequential scan for every thread count.
pub fn count_itemsets(data: &TransactionSet, itemsets: &[Itemset], par: Parallelism) -> Vec<u64> {
    if itemsets.is_empty() || data.is_empty() {
        // The empty itemset is contained in every transaction; handle the
        // empty-data case uniformly here.
        return itemsets
            .iter()
            .map(|s| if s.is_empty() { data.len() as u64 } else { 0 })
            .collect();
    }
    let words_len = (data.n_items() as usize).div_ceil(64).max(1);
    let parts = map_chunks(par, data.len(), SCAN_GRAIN, |range| {
        let mut words = vec![0u64; words_len];
        let mut counts = vec![0u64; itemsets.len()];
        for t in range {
            data.bitmap_of(t, &mut words);
            for (i, s) in itemsets.iter().enumerate() {
                if s.is_subset_of_bitmap(&words) {
                    counts[i] += 1;
                }
            }
        }
        counts
    });
    merge_counts(parts)
}

/// Counts, for each `(leaf, class)` region of a partition, the number of
/// rows of `data` that fall in it, scanning row chunks on `par` worker
/// threads. Returns a row-major `leaves.len() × n_classes` vector,
/// bit-identical for every thread count.
///
/// One scan: each row is routed to the (unique) containing leaf.
pub fn count_partition(
    data: &LabeledTable,
    leaves: &[BoxRegion],
    n_classes: u32,
    par: Parallelism,
) -> Vec<u64> {
    let k = n_classes as usize;
    // A label ≥ n_classes would index past its leaf's row and silently fold
    // the count into a neighbouring (leaf, class) slot; validate up front
    // (mirroring the class-count guard on the GCR cell scan).
    if let Some(row) = data.labels.iter().position(|&l| l >= n_classes) {
        panic!(
            "count_partition: row {row} has class label {} but the partition \
             was built for {n_classes} classes",
            data.labels[row]
        );
    }
    if leaves.is_empty() {
        return Vec::new();
    }
    let parts = map_chunks(par, data.len(), SCAN_GRAIN, |range| {
        let mut counts = vec![0u64; leaves.len() * k];
        for i in range {
            let row = data.table.row(i);
            if let Some(leaf) = leaves.iter().position(|l| l.contains(row)) {
                counts[leaf * k + data.labels[i] as usize] += 1;
            }
        }
        counts
    });
    if parts.is_empty() {
        return vec![0u64; leaves.len() * k];
    }
    merge_counts(parts)
}

/// Counts, for each (possibly overlapping) box, the rows of `data` inside
/// it, scanning row chunks on `par` worker threads. Unlike
/// [`count_partition`], every box is tested for every row.
pub fn count_boxes(data: &Table, boxes: &[BoxRegion], par: Parallelism) -> Vec<u64> {
    let parts = map_chunks(par, data.len(), SCAN_GRAIN, |range| {
        let mut counts = vec![0u64; boxes.len()];
        for r in range {
            let row = data.row(r);
            for (i, b) in boxes.iter().enumerate() {
                if b.contains(row) {
                    counts[i] += 1;
                }
            }
        }
        counts
    });
    if parts.is_empty() {
        return vec![0u64; boxes.len()];
    }
    merge_counts(parts)
}

/// Counts labelled rows per class-carrying box (used when GCR cells carry
/// class labels explicitly), scanning row chunks on `par` worker threads.
pub fn count_labeled_boxes(data: &LabeledTable, boxes: &[BoxRegion], par: Parallelism) -> Vec<u64> {
    let parts = map_chunks(par, data.len(), SCAN_GRAIN, |range| {
        let mut counts = vec![0u64; boxes.len()];
        for r in range {
            let row = data.table.row(r);
            let label = data.labels[r];
            for (i, b) in boxes.iter().enumerate() {
                if b.contains_labeled(row, label) {
                    counts[i] += 1;
                }
            }
        }
        counts
    });
    if parts.is_empty() {
        return vec![0u64; boxes.len()];
    }
    merge_counts(parts)
}

/// Builds a [`DtModel`] measure component for an externally supplied leaf
/// partition by scanning a dataset.
pub fn induce_dt_measures(leaves: Vec<BoxRegion>, data: &LabeledTable) -> DtModel {
    let counts = count_partition(data, &leaves, data.n_classes, Parallelism::Global);
    let n = data.len().max(1) as f64;
    let measures = counts.iter().map(|&c| c as f64 / n).collect();
    DtModel::new(leaves, data.n_classes, measures, data.len() as u64)
}

/// Builds a [`LitsModel`] over a *given* structural component (not
/// necessarily the frequent itemsets of `data`) by scanning `data`. This is
/// the "extension" step of Definition 3.6.
pub fn induce_lits_measures(
    itemsets: Vec<Itemset>,
    minsup: f64,
    data: &TransactionSet,
) -> LitsModel {
    let counts = count_itemsets(data, &itemsets, Parallelism::Global);
    let n = data.len().max(1) as f64;
    let supports = counts.iter().map(|&c| c as f64 / n).collect();
    LitsModel::new(itemsets, supports, minsup, data.len() as u64)
}

/// A fast lookup table from itemset to index (for joins over structures).
pub fn itemset_index(itemsets: &[Itemset]) -> HashMap<&Itemset, usize> {
    itemsets.iter().enumerate().map(|(i, s)| (s, i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Schema, Value};
    use crate::region::BoxBuilder;
    use std::sync::Arc;

    fn toy_transactions() -> TransactionSet {
        // 4 transactions over items {0=a, 1=b}.
        let mut ts = TransactionSet::new(2);
        ts.push(vec![0, 1]);
        ts.push(vec![0]);
        ts.push(vec![1]);
        ts.push(vec![0, 1]);
        ts
    }

    #[test]
    fn count_itemsets_basic() {
        let ts = toy_transactions();
        let sets = vec![
            Itemset::from_slice(&[0]),
            Itemset::from_slice(&[1]),
            Itemset::from_slice(&[0, 1]),
        ];
        assert_eq!(
            count_itemsets(&ts, &sets, Parallelism::Global),
            vec![3, 3, 2]
        );
    }

    #[test]
    fn count_itemsets_empty_itemset_matches_all() {
        let ts = toy_transactions();
        let sets = vec![Itemset::new(vec![])];
        assert_eq!(count_itemsets(&ts, &sets, Parallelism::Global), vec![4]);
    }

    #[test]
    fn lits_model_lookup_and_canonical_order() {
        let m = LitsModel::new(
            vec![Itemset::from_slice(&[1]), Itemset::from_slice(&[0])],
            vec![0.4, 0.5],
            0.1,
            100,
        );
        assert_eq!(m.support_of(&Itemset::from_slice(&[0])), Some(0.5));
        assert_eq!(m.support_of(&Itemset::from_slice(&[1])), Some(0.4));
        assert_eq!(m.support_of(&Itemset::from_slice(&[2])), None);
        // Canonical order: {0} before {1}.
        assert_eq!(m.itemsets()[0], Itemset::from_slice(&[0]));
    }

    fn toy_labeled() -> (Arc<Schema>, LabeledTable) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("age")]));
        let mut t = LabeledTable::new(Arc::clone(&schema), 2);
        // Ages 10, 20, 30, 40 with classes 0, 0, 1, 1.
        for (age, c) in [(10.0, 0), (20.0, 0), (30.0, 1), (40.0, 1)] {
            t.push_row(&[Value::Num(age)], c);
        }
        (schema, t)
    }

    #[test]
    fn count_partition_routes_rows() {
        let (schema, t) = toy_labeled();
        let leaves = vec![
            BoxBuilder::new(&schema).lt("age", 25.0).build(),
            BoxBuilder::new(&schema).ge("age", 25.0).build(),
        ];
        let counts = count_partition(&t, &leaves, 2, Parallelism::Global);
        // leaf0: class0 = 2, class1 = 0; leaf1: class0 = 0, class1 = 2.
        assert_eq!(counts, vec![2, 0, 0, 2]);
    }

    #[test]
    #[should_panic(expected = "count_partition: row 2 has class label 2")]
    fn count_partition_rejects_stale_class_count() {
        // The table legitimately has 3 classes; counting it against a
        // partition sized for 2 must fail loudly, not fold class 2 into a
        // neighbouring slot.
        let schema = Arc::new(Schema::new(vec![Schema::numeric("age")]));
        let mut t = LabeledTable::new(Arc::clone(&schema), 3);
        for (age, c) in [(10.0, 0), (20.0, 1), (30.0, 2)] {
            t.push_row(&[Value::Num(age)], c);
        }
        let leaves = vec![
            BoxBuilder::new(&schema).lt("age", 25.0).build(),
            BoxBuilder::new(&schema).ge("age", 25.0).build(),
        ];
        count_partition(&t, &leaves, 2, Parallelism::Global);
    }

    #[test]
    fn induce_dt_measures_normalizes() {
        let (schema, t) = toy_labeled();
        let leaves = vec![
            BoxBuilder::new(&schema).lt("age", 25.0).build(),
            BoxBuilder::new(&schema).ge("age", 25.0).build(),
        ];
        let m = induce_dt_measures(leaves, &t);
        assert_eq!(m.measure(0, 0), 0.5);
        assert_eq!(m.measure(1, 1), 0.5);
        let total: f64 = m.measures().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn dt_model_predict_majority() {
        let (schema, t) = toy_labeled();
        let leaves = vec![
            BoxBuilder::new(&schema).lt("age", 25.0).build(),
            BoxBuilder::new(&schema).ge("age", 25.0).build(),
        ];
        let m = induce_dt_measures(leaves, &t);
        assert_eq!(m.predict(&[Value::Num(15.0)]), 0);
        assert_eq!(m.predict(&[Value::Num(35.0)]), 1);
    }

    #[test]
    fn class_regions_expand_leaves() {
        let (schema, t) = toy_labeled();
        let leaves = vec![
            BoxBuilder::new(&schema).lt("age", 25.0).build(),
            BoxBuilder::new(&schema).ge("age", 25.0).build(),
        ];
        let m = induce_dt_measures(leaves, &t);
        let regions = m.class_regions();
        assert_eq!(regions.len(), 4);
        assert_eq!(regions[0].class, Some(0));
        assert_eq!(regions[1].class, Some(1));
    }

    #[test]
    fn count_boxes_allows_overlap() {
        let (schema, t) = toy_labeled();
        let boxes = vec![
            BoxBuilder::new(&schema).lt("age", 35.0).build(),
            BoxBuilder::new(&schema).ge("age", 15.0).build(),
        ];
        let counts = count_boxes(&t.table, &boxes, Parallelism::Global);
        assert_eq!(counts, vec![3, 3]);
    }

    #[test]
    fn count_labeled_boxes_respects_class() {
        let (schema, t) = toy_labeled();
        let b0 = BoxBuilder::new(&schema).class(0).build();
        let b1 = BoxBuilder::new(&schema).class(1).build();
        assert_eq!(
            count_labeled_boxes(&t, &[b0, b1], Parallelism::Global),
            vec![2, 2]
        );
    }

    #[test]
    #[should_panic(expected = "leaf cells must be class-free")]
    fn dt_model_rejects_classful_leaves() {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let leaf = BoxBuilder::new(&schema).class(0).build();
        DtModel::new(vec![leaf], 2, vec![0.5, 0.5], 10);
    }
}
