//! The [`ModelFamily`] trait: what Section 3 of the paper treats uniformly
//! across lits-, dt- and cluster-models.
//!
//! FOCUS defines the deviation measure *once* — extend both models to the
//! greatest common refinement of their structural components, apply `f`
//! per region and `g` over all regions (Definitions 3.5/3.6). Only four
//! ingredients vary by model class:
//!
//! 1. **GCR construction** — union of itemset families, partition overlay,
//!    or box overlay with remainders ([`crate::gcr`]);
//! 2. **measure extension** — one scan of a dataset producing the measure
//!    of every GCR region w.r.t. that dataset;
//! 3. **focussing** — how a region list is intersected with ρ
//!    (Definition 5.2);
//! 4. **the model-only upper bound** — δ* of Definition 4.1 for lits,
//!    with the dt and cluster analogues derived in [`crate::bound`]; the
//!    lits and dt bounds are additionally pseudo-metrics
//!    ([`ModelFamily::BOUND_IS_METRIC`]), which gates δ*-space embedding
//!    downstream.
//!
//! The trait captures exactly those four, so the generic engine in
//! [`crate::deviation`] (`deviate`, `deviate_focussed`,
//! `deviate_over_sources`) and the batch matrix engine in `focus-registry` are
//! written once and instantiated per family. All implementations preserve
//! the workspace determinism contract: measures and per-region values are
//! bit-identical for every worker-thread count.

use crate::data::{LabeledTable, Table, TransactionSet};
use crate::diff::{AggFn, DiffFn};
use crate::gcr::{gcr_boxes, gcr_lits, gcr_partition, merge_join, Joined, OverlayCell};
use crate::model::{count_boxes, ClusterModel, DtModel, LitsModel};
use crate::region::{BoxRegion, Itemset};
use crate::source::CountSource;
use focus_exec::{map_chunks, merge_counts, Parallelism};

/// Which side of a deviation pair a dataset belongs to. Measure extension
/// needs this because some families treat the two sides asymmetrically:
/// lits reuses the supports recorded in *that side's* model, and dt routes
/// rows through `(m1 leaf, m2 leaf)` pairs in pair order regardless of
/// which dataset is being scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The dataset that induced the pair's first model.
    Left,
    /// The dataset that induced the pair's second model.
    Right,
}

/// A model class that plugs into the FOCUS framework: the 2-component and
/// meet-semilattice properties of Section 3, plus the optional scan-free
/// upper bound of Section 4.1.1.
pub trait ModelFamily {
    /// The model type `⟨Γ, Σ⟩` (`Sync` so batch engines can share models
    /// across worker threads).
    type Model: Sync;
    /// The dataset type the family's models are induced from (`Sync` for
    /// the same reason).
    type Dataset: Sync;
    /// The GCR of two structural components, including any routing state
    /// the measure scans need (e.g. the dt overlay's leaf-pair index).
    /// `Sync` because the per-region difference loop fans out over it.
    type Gcr: Sync;
    /// The focussing-region type ρ of Definition 5.2 (a sorted item
    /// universe for lits, a box for dt/cluster).
    type Focus: ?Sized;
    /// The per-dataset access handle the measure scans read through
    /// (`Sync` so one handle is shared across a batch run's worker
    /// threads). Lits uses a [`CountSource`] — a counting handle that
    /// caches its vertical index and picks an arm per workload via the
    /// deterministic cost model — so repeated scans of one snapshot build
    /// the index at most once; dt and cluster scan their tables directly.
    type Source<'a>: Sync
    where
        Self: 'a;

    /// Human-readable family name (`lits`, `dt`, `cluster`).
    const NAME: &'static str;

    /// True when the family's δ* is a *pseudo-metric* on models —
    /// symmetric, `δ*(M, M) = 0`, triangle inequality (Theorem 4.2 (2)) —
    /// so a collection's bound grid is a valid distance matrix for MDS
    /// embedding; the registry embeds over it only when this is set.
    /// `false` for cluster-models, whose bound violates `δ*(M, M) = 0`
    /// when clusters overlap.
    const BOUND_IS_METRIC: bool = false;

    /// The GCR of the two structural components (Definition 3.4).
    fn gcr(m1: &Self::Model, m2: &Self::Model) -> Self::Gcr;

    /// Intersects every GCR region with the focussing region ρ; regions
    /// that miss ρ drop out (Definition 5.2).
    fn restrict(gcr: Self::Gcr, focus: &Self::Focus) -> Self::Gcr;

    /// Number of evaluation regions: the units `f` is applied to. For dt
    /// this is `cells × classes`, not the cell count alone.
    fn n_regions(gcr: &Self::Gcr) -> usize;

    /// Wraps a dataset in the family's access handle. Constructing a
    /// source is cheap (no index build, no copy); the expensive structures
    /// are built lazily inside the handle, at most once per handle.
    fn source(data: &Self::Dataset) -> Self::Source<'_>;

    /// Number of rows/transactions behind an access handle.
    fn source_len(source: &Self::Source<'_>) -> u64;

    /// The canonical measure of every evaluation region w.r.t. the
    /// dataset behind `source` (one scan, fanned out over `par`,
    /// bit-identical for any thread count). `m1`/`m2` are the pair's
    /// models in pair order; `side` says which of the two datasets is
    /// being scanned. Lits returns support *fractions* (reusing the
    /// side's model where possible); dt and cluster return absolute
    /// counts as `f64`.
    fn measures(
        gcr: &Self::Gcr,
        m1: &Self::Model,
        m2: &Self::Model,
        source: &Self::Source<'_>,
        side: Side,
        par: Parallelism,
    ) -> Vec<f64>;

    /// Converts one canonical measure to the *absolute* measure `v` that
    /// [`DiffFn::eval`] expects (`fraction × n` for lits, identity for the
    /// count-based families).
    fn abs_measure(raw: f64, n: u64) -> f64;

    /// Whether evaluation region `i` participates in the aggregate `g`.
    /// Non-participating regions (a class-focussed dt cell's other
    /// classes) report `0` in `per_region` and are excluded from the fold.
    fn participates(gcr: &Self::Gcr, i: usize) -> bool {
        let _ = (gcr, i);
        true
    }

    /// Number of rows/transactions in a dataset.
    fn data_len(data: &Self::Dataset) -> u64;

    /// Why `m1` and `m2` cannot be compared — their regions live in
    /// different attribute spaces or class sets — or `None` when they can.
    /// GCRs, deviations and bounds are defined only for comparable pairs;
    /// callers that pair models from disk check this first.
    fn mismatch(m1: &Self::Model, m2: &Self::Model) -> Option<String>;

    /// The model-only upper bound on `δ(f_a, g)` (δ* of Definition 4.1).
    /// Every family defines one, so this is always `Some`.
    fn upper_bound(m1: &Self::Model, m2: &Self::Model, g: AggFn) -> Option<f64>;

    /// True when the bound *dominates* `δ(diff, g)` for this specific
    /// pair, i.e. pruning on `upper_bound` is sound (Theorem 4.2 (1)).
    /// Non-`f_a` difference functions and mixed-minsup lits pairs answer
    /// `false`.
    fn bound_dominates(diff: DiffFn, m1: &Self::Model, m2: &Self::Model) -> bool;
}

/// The schema mismatch between two box families, read off their first
/// boxes: every box of one model spans the same attribute space.
fn boxes_mismatch(b1: &[BoxRegion], b2: &[BoxRegion]) -> Option<String> {
    b1.first()?.schema_mismatch(b2.first()?)
}

// ---------------------------------------------------------------------------
// lits
// ---------------------------------------------------------------------------

/// Frequent-itemset models over transaction data (Section 4.1). A lits
/// GCR, and any region list passed to [`ModelFamily::measures`], is in
/// canonical order: strictly ascending, as [`LitsFamily::gcr`] builds it.
#[derive(Debug, Clone, Copy)]
pub struct LitsFamily;

impl ModelFamily for LitsFamily {
    type Model = LitsModel;
    type Dataset = TransactionSet;
    type Gcr = Vec<Itemset>;
    type Focus = [u32];
    type Source<'a>
        = CountSource<'a>
    where
        Self: 'a;

    const NAME: &'static str = "lits";
    const BOUND_IS_METRIC: bool = true;

    fn gcr(m1: &LitsModel, m2: &LitsModel) -> Vec<Itemset> {
        gcr_lits(m1.itemsets(), m2.itemsets())
    }

    fn source(data: &TransactionSet) -> CountSource<'_> {
        CountSource::borrowed(data)
    }

    fn source_len(source: &CountSource<'_>) -> u64 {
        source.len() as u64
    }

    fn restrict(gcr: Vec<Itemset>, universe: &[u32]) -> Vec<Itemset> {
        debug_assert!(universe.windows(2).all(|w| w[0] < w[1]), "sorted universe");
        gcr.into_iter()
            .filter(|s| s.within_universe(universe))
            .collect()
    }

    fn n_regions(gcr: &Vec<Itemset>) -> usize {
        gcr.len()
    }

    fn measures(
        gcr: &Vec<Itemset>,
        m1: &LitsModel,
        m2: &LitsModel,
        source: &CountSource<'_>,
        side: Side,
        par: Parallelism,
    ) -> Vec<f64> {
        let own = match side {
            Side::Left => m1,
            Side::Right => m2,
        };
        extend_supports(gcr, own, source, par)
    }

    fn abs_measure(raw: f64, n: u64) -> f64 {
        raw * n as f64
    }

    fn data_len(data: &TransactionSet) -> u64 {
        data.len() as u64
    }

    fn mismatch(_m1: &LitsModel, _m2: &LitsModel) -> Option<String> {
        // An item outside a dataset's universe supports nothing, so
        // itemsets over any two universes compare.
        None
    }

    fn upper_bound(m1: &LitsModel, m2: &LitsModel, g: AggFn) -> Option<f64> {
        Some(crate::bound::lits_upper_bound(m1, m2, g))
    }

    fn bound_dominates(diff: DiffFn, m1: &LitsModel, m2: &LitsModel) -> bool {
        // Two conditions, both from Theorem 4.2 (1):
        // * the difference function is the *absolute* f_a — a scaled or χ²
        //   deviation can exceed the f_a bound arbitrarily;
        // * the two models share a minsup — the domination argument
        //   replaces an itemset's unknown support with 0 because
        //   "unknown < ms ≤ known"; with minsups 0.6 vs 0.01 an itemset
        //   known at 0.05 in one model may have true support 0.55 in the
        //   other dataset, so the truth dwarfs the bound's contribution.
        matches!(diff, DiffFn::Absolute) && m1.minsup() == m2.minsup()
    }
}

/// The measure-extension step: supports of `regions` w.r.t. the dataset
/// behind `source`, reusing the supports recorded in `model` where
/// available so only the itemsets missing from the model's structure
/// trigger counting work. `regions` is the GCR or a ρ-restriction of it,
/// a subsequence of the union in the same canonical order, so one
/// [`merge_join`] against the model's own sorted list finds every
/// recorded support.
pub(crate) fn extend_supports(
    regions: &[Itemset],
    model: &LitsModel,
    source: &CountSource<'_>,
    par: Parallelism,
) -> Vec<f64> {
    let mut supports = vec![0.0f64; regions.len()];
    let mut missing: Vec<usize> = Vec::new();
    for (_, at) in merge_join(regions, model.itemsets()) {
        match at {
            Joined::Both(i, j) => supports[i] = model.supports()[j],
            Joined::First(i) => missing.push(i),
            Joined::Second(_) => {}
        }
    }
    if !missing.is_empty() {
        let to_count: Vec<Itemset> = missing.iter().map(|&i| regions[i].clone()).collect();
        // Cost-model dispatched: large workloads count through the
        // source's cached vertical tid-bitset index, batched by shared
        // (k−1)-prefix runs — one cached intersection mask per run, one
        // masked popcount per sibling — instead of re-walking every
        // transaction. Counts are identical either way, so measures stay
        // bit-identical to the horizontal scan.
        let counts = source.counts(&to_count, par);
        let n = source.len().max(1) as f64;
        for (slot, &c) in missing.iter().zip(&counts) {
            supports[*slot] = c as f64 / n;
        }
    }
    supports
}

// ---------------------------------------------------------------------------
// dt
// ---------------------------------------------------------------------------

/// Decision-tree models over labelled tables (Section 4.2).
#[derive(Debug, Clone, Copy)]
pub struct DtFamily;

/// The GCR of two dt-models: the overlay cells plus the class count, so
/// evaluation regions are `(cell, class)` pairs in row-major order.
#[derive(Debug, Clone)]
pub struct DtGcr {
    /// The overlay cells (class-free; classes are the measure rows).
    pub cells: Vec<OverlayCell>,
    /// Number of classes `k` (shared by both models).
    pub n_classes: u32,
    /// Whether the cell scan re-checks each row against its cell's region.
    /// Only the plain overlay [`DtFamily::gcr`] builds skips it: there
    /// every cell is exactly its leaf pair's intersection.
    recheck: bool,
}

impl DtGcr {
    /// A GCR over hand-built `cells`. They may be smaller than their leaf
    /// pair's intersection, so the scan re-checks every row.
    pub fn new(cells: Vec<OverlayCell>, n_classes: u32) -> Self {
        Self {
            cells,
            n_classes,
            recheck: true,
        }
    }
}

impl ModelFamily for DtFamily {
    type Model = DtModel;
    type Dataset = LabeledTable;
    type Gcr = DtGcr;
    type Focus = BoxRegion;
    type Source<'a>
        = &'a LabeledTable
    where
        Self: 'a;

    const NAME: &'static str = "dt";
    const BOUND_IS_METRIC: bool = true;

    fn gcr(m1: &DtModel, m2: &DtModel) -> DtGcr {
        assert_eq!(m1.n_classes(), m2.n_classes(), "class sets must agree");
        DtGcr {
            cells: gcr_partition(m1.leaves(), m2.leaves()),
            n_classes: m1.n_classes(),
            recheck: false,
        }
    }

    fn source(data: &LabeledTable) -> &LabeledTable {
        data
    }

    fn source_len(source: &&LabeledTable) -> u64 {
        source.len() as u64
    }

    fn restrict(gcr: DtGcr, focus: &BoxRegion) -> DtGcr {
        let cells = gcr.cells.into_iter().filter_map(|c| {
            let region = c.region.intersect(focus)?;
            Some(OverlayCell { region, ..c })
        });
        DtGcr::new(cells.collect(), gcr.n_classes)
    }

    fn n_regions(gcr: &DtGcr) -> usize {
        gcr.cells.len() * gcr.n_classes as usize
    }

    fn measures(
        gcr: &DtGcr,
        m1: &DtModel,
        m2: &DtModel,
        data: &&LabeledTable,
        _side: Side,
        par: Parallelism,
    ) -> Vec<f64> {
        count_cells(gcr, m1, m2, data, par)
            .into_iter()
            .map(|c| c as f64)
            .collect()
    }

    fn abs_measure(raw: f64, _n: u64) -> f64 {
        raw
    }

    fn participates(gcr: &DtGcr, i: usize) -> bool {
        // A cell whose region pins a class (a class-focussed ρ) contributes
        // only that class's region; for plain GCR cells `class` is `None`.
        let k = gcr.n_classes as usize;
        match gcr.cells[i / k].region.class {
            Some(only) => only as usize == i % k,
            None => true,
        }
    }

    fn data_len(data: &LabeledTable) -> u64 {
        data.len() as u64
    }

    fn mismatch(m1: &DtModel, m2: &DtModel) -> Option<String> {
        if m1.n_classes() != m2.n_classes() {
            return Some(format!("{} vs {} classes", m1.n_classes(), m2.n_classes()));
        }
        boxes_mismatch(m1.leaves(), m2.leaves())
    }

    fn upper_bound(m1: &DtModel, m2: &DtModel, g: AggFn) -> Option<f64> {
        Some(crate::bound::dt_upper_bound(m1, m2, g))
    }

    fn bound_dominates(diff: DiffFn, m1: &DtModel, m2: &DtModel) -> bool {
        // The leaf-mass dominance argument (see [`crate::bound::
        // dt_upper_bound`]) needs the absolute f_a and a shared class set —
        // with unequal class counts the exact engine cannot even build the
        // GCR, so the pair must be scanned (and fail loudly there) rather
        // than silently pruned.
        matches!(diff, DiffFn::Absolute) && m1.n_classes() == m2.n_classes()
    }
}

/// Routes each row of `data` through both original partitions to its GCR
/// cell and tallies per-class counts. Each model locates the row through
/// its leaf index ([`crate::region::BoxIndex`]), and a dense `L1 × L2`
/// table maps the leaf pair to its cell, so the scan costs
/// `O(rows · (attrs · log L + L/64))` for `L = max(L1, L2)` leaves instead
/// of `O(rows · |GCR|)`. Each leaf index takes at most about
/// `attrs · L²/4` bytes, the table `4 · L1 · L2` bytes. A row in leaves
/// `i` and `j` lies in `leaf_i ∩ leaf_j`, so it is re-checked against its
/// cell only when the cells may be smaller than that (a focussed or
/// hand-built [`DtGcr`]). Row chunks fan out over `par` worker threads;
/// the per-chunk tallies merge by `u64` addition, bit-identical to a
/// sequential scan.
fn count_cells(
    gcr: &DtGcr,
    m1: &DtModel,
    m2: &DtModel,
    data: &LabeledTable,
    par: Parallelism,
) -> Vec<u64> {
    let cells = &gcr.cells;
    let k = gcr.n_classes as usize;
    // The per-(cell, class) tallies index `counts[idx * k + label]`: a
    // label at or beyond `k` (a hand-built `DtGcr` whose class count
    // disagrees with the data) would silently land in a *neighbouring
    // cell's* slot rather than out of bounds, so guard it up front.
    assert!(
        data.n_classes as usize <= k,
        "dataset has {} classes but the GCR was built for {}",
        data.n_classes,
        k
    );
    // `cell_of[i * l2 + j]` is the cell of leaf pair (i, j), or `NO_CELL`.
    const NO_CELL: u32 = u32::MAX;
    assert!(cells.len() < NO_CELL as usize, "too many GCR cells");
    let (l1, l2) = (m1.leaves().len(), m2.leaves().len());
    let mut cell_of = vec![NO_CELL; l1 * l2];
    for (idx, c) in cells.iter().enumerate() {
        if c.left < l1 && c.right < l2 {
            cell_of[c.left * l2 + c.right] = idx as u32;
        }
    }
    let cell_of = &cell_of;
    let parts = map_chunks(par, data.len(), crate::model::SCAN_GRAIN, |range| {
        let mut counts = vec![0u64; cells.len() * k];
        for r in range {
            let row = data.table.row(r);
            let label = data.labels[r];
            let (Some(i), Some(j)) = (m1.locate(row), m2.locate(row)) else {
                continue;
            };
            let idx = cell_of[i * l2 + j];
            if idx != NO_CELL
                && (!gcr.recheck || cells[idx as usize].region.contains_labeled(row, label))
            {
                counts[idx as usize * k + label as usize] += 1;
            }
        }
        counts
    });
    if parts.is_empty() {
        return vec![0u64; cells.len() * k];
    }
    merge_counts(parts)
}

// ---------------------------------------------------------------------------
// cluster
// ---------------------------------------------------------------------------

/// Cluster models (non-exhaustive box families) over plain tables.
#[derive(Debug, Clone, Copy)]
pub struct ClusterFamily;

impl ModelFamily for ClusterFamily {
    type Model = ClusterModel;
    type Dataset = Table;
    type Gcr = Vec<BoxRegion>;
    type Focus = BoxRegion;
    type Source<'a>
        = &'a Table
    where
        Self: 'a;

    const NAME: &'static str = "cluster";
    // Explicitly NOT a metric: δ*(C, C) > 0 for overlapping clusters, so
    // the bound grid must never be fed to MDS.
    const BOUND_IS_METRIC: bool = false;

    fn gcr(m1: &ClusterModel, m2: &ClusterModel) -> Vec<BoxRegion> {
        gcr_boxes(m1.clusters(), m2.clusters())
    }

    fn source(data: &Table) -> &Table {
        data
    }

    fn source_len(source: &&Table) -> u64 {
        source.len() as u64
    }

    fn restrict(gcr: Vec<BoxRegion>, focus: &BoxRegion) -> Vec<BoxRegion> {
        gcr.into_iter().filter_map(|r| r.intersect(focus)).collect()
    }

    fn n_regions(gcr: &Vec<BoxRegion>) -> usize {
        gcr.len()
    }

    fn measures(
        gcr: &Vec<BoxRegion>,
        _m1: &ClusterModel,
        _m2: &ClusterModel,
        data: &&Table,
        _side: Side,
        par: Parallelism,
    ) -> Vec<f64> {
        count_boxes(data, gcr, par)
            .into_iter()
            .map(|c| c as f64)
            .collect()
    }

    fn abs_measure(raw: f64, _n: u64) -> f64 {
        raw
    }

    fn data_len(data: &Table) -> u64 {
        data.len() as u64
    }

    fn mismatch(m1: &ClusterModel, m2: &ClusterModel) -> Option<String> {
        boxes_mismatch(m1.clusters(), m2.clusters())
    }

    fn upper_bound(m1: &ClusterModel, m2: &ClusterModel, g: AggFn) -> Option<f64> {
        Some(crate::bound::cluster_upper_bound(m1, m2, g))
    }

    fn bound_dominates(diff: DiffFn, _m1: &ClusterModel, _m2: &ClusterModel) -> bool {
        // The per-piece dominance argument (see [`crate::bound::
        // cluster_upper_bound`]) needs the absolute f_a and the FOCUS
        // contract that measures are the cluster boxes' selectivities in
        // the paired dataset — the latter is a modelling convention the
        // models cannot witness, exactly like the lits supports contract.
        matches!(diff, DiffFn::Absolute)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_and_bound_metrics() {
        assert_eq!(LitsFamily::NAME, "lits");
        assert_eq!(DtFamily::NAME, "dt");
        assert_eq!(ClusterFamily::NAME, "cluster");
        // Compile-time contract: only the lits/dt bounds are pseudo-metrics.
        const {
            assert!(LitsFamily::BOUND_IS_METRIC);
            assert!(DtFamily::BOUND_IS_METRIC);
            assert!(!ClusterFamily::BOUND_IS_METRIC);
        }
    }

    #[test]
    fn lits_bound_dominates_only_fa_same_minsup() {
        let m = |ms: f64| LitsModel::new(Vec::new(), Vec::new(), ms, 10);
        assert!(LitsFamily::bound_dominates(
            DiffFn::Absolute,
            &m(0.1),
            &m(0.1)
        ));
        assert!(!LitsFamily::bound_dominates(
            DiffFn::Scaled,
            &m(0.1),
            &m(0.1)
        ));
        assert!(!LitsFamily::bound_dominates(
            DiffFn::Absolute,
            &m(0.1),
            &m(0.2)
        ));
    }

    #[test]
    fn dt_bound_dominates_only_fa_same_classes() {
        let m = |k: u32| DtModel::new(Vec::new(), k, Vec::new(), 10);
        assert!(DtFamily::bound_dominates(DiffFn::Absolute, &m(2), &m(2)));
        assert!(!DtFamily::bound_dominates(DiffFn::Scaled, &m(2), &m(2)));
        assert!(!DtFamily::bound_dominates(DiffFn::Absolute, &m(2), &m(3)));
        assert!(DtFamily::upper_bound(&m(2), &m(3), AggFn::Sum).is_some());
    }

    #[test]
    fn cluster_bound_dominates_only_fa() {
        let c = ClusterModel::new(Vec::new(), Vec::new(), 0);
        assert!(ClusterFamily::bound_dominates(DiffFn::Absolute, &c, &c));
        assert!(!ClusterFamily::bound_dominates(DiffFn::Scaled, &c, &c));
        assert_eq!(ClusterFamily::upper_bound(&c, &c, AggFn::Sum), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "dataset has 3 classes but the GCR was built for 2")]
    fn dt_measures_reject_class_count_mismatch() {
        // A hand-built DtGcr whose class count understates the data's
        // would tally labels into a neighbouring cell's slot; the scan
        // must refuse instead.
        use crate::data::{LabeledTable, Schema, Value};
        use crate::model::induce_dt_measures;
        use crate::region::BoxBuilder;
        use std::sync::Arc;
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut wide = LabeledTable::new(Arc::clone(&schema), 3);
        for (x, c) in [(0.0, 0), (1.0, 1), (2.0, 2)] {
            wide.push_row(&[Value::Num(x)], c);
        }
        let mut narrow = LabeledTable::new(Arc::clone(&schema), 2);
        for (x, c) in [(0.0, 0), (2.0, 1)] {
            narrow.push_row(&[Value::Num(x)], c);
        }
        let leaves = vec![
            BoxBuilder::new(&schema).lt("x", 1.5).build(),
            BoxBuilder::new(&schema).ge("x", 1.5).build(),
        ];
        let model = induce_dt_measures(leaves, &narrow);
        let gcr = DtFamily::gcr(&model, &model);
        DtFamily::measures(
            &gcr,
            &model,
            &model,
            &&wide,
            Side::Left,
            Parallelism::Sequential,
        );
    }

    #[test]
    fn dt_participation_follows_pinned_class() {
        use crate::data::Schema;
        use crate::region::BoxBuilder;
        use std::sync::Arc;
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let plain = BoxBuilder::new(&schema).lt("x", 1.0).build();
        let pinned = BoxBuilder::new(&schema).ge("x", 1.0).class(1).build();
        let gcr = DtGcr::new(
            vec![
                OverlayCell {
                    region: plain,
                    left: 0,
                    right: 0,
                },
                OverlayCell {
                    region: pinned,
                    left: 1,
                    right: 1,
                },
            ],
            2,
        );
        assert!(DtFamily::participates(&gcr, 0));
        assert!(DtFamily::participates(&gcr, 1));
        assert!(
            !DtFamily::participates(&gcr, 2),
            "class 0 of a pinned-1 cell"
        );
        assert!(DtFamily::participates(&gcr, 3));
    }
}
