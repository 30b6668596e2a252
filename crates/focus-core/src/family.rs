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
//!    of every GCR region w.r.t. that dataset. One scan serves every pair
//!    the dataset takes part in ([`ModelFamily::extend`]): a batch
//!    matrix extends each snapshot once against all its partner models,
//!    and [`ModelFamily::measures`] is the one-partner case;
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
use crate::gcr::{
    gcr_boxes, gcr_lits, gcr_partition, merge_join, overlay_pairs, Joined, OverlayCell,
};
use crate::model::{count_boxes, ClusterModel, DtModel, LitsModel};
use crate::region::{BoxRegion, Itemset};
use crate::source::CountSource;
use focus_exec::{map_chunks, Parallelism};

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

/// One pair that a scan of a dataset serves (see [`ModelFamily::extend`]):
/// the other model of the pair, which side of the pair the scanned
/// dataset is on, and the regions to measure.
pub struct Partner<'a, F: ModelFamily + ?Sized> {
    /// The pair's other model: `m2` when `side` is [`Side::Left`], `m1`
    /// when it is [`Side::Right`].
    pub model: &'a F::Model,
    /// The scanned dataset's side of the pair.
    pub side: Side,
    /// The regions to measure: a GCR of the pair (a ρ-restricted or
    /// hand-built one, say), or `None` for the plain
    /// [`ModelFamily::gcr`] of the pair, which the scan then does not
    /// need built.
    pub gcr: Option<&'a F::Gcr>,
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
    /// (`Sync` so one handle is shared across a scan's worker threads).
    /// Lits uses a [`CountSource`] — a counting handle that
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

    /// Measure extension for every pair one dataset takes part in, in
    /// one scan of the dataset behind `source`: for each partner, in
    /// order, the canonical measure of every evaluation region of that
    /// pair's GCR. `own` is the model of the scanned dataset. Lits returns
    /// support *fractions* (reusing `own`'s supports and counting the
    /// union of the regions it lacks once); dt locates each row in `own`'s
    /// tree once and in each partner's tree once; cluster counts each
    /// partner's boxes. Fanned out over `par`, bit-identical for any
    /// thread count, and equal to one [`ModelFamily::measures`] call per
    /// partner.
    fn extend(
        source: &Self::Source<'_>,
        own: &Self::Model,
        partners: &[Partner<'_, Self>],
        par: Parallelism,
    ) -> Vec<Vec<f64>>;

    /// The canonical measure of every evaluation region of `gcr` w.r.t.
    /// the dataset behind `source`: [`ModelFamily::extend`] with one
    /// partner. `m1`/`m2` are the pair's models in pair order; `side` says
    /// which of the two datasets is being scanned.
    fn measures(
        gcr: &Self::Gcr,
        m1: &Self::Model,
        m2: &Self::Model,
        source: &Self::Source<'_>,
        side: Side,
        par: Parallelism,
    ) -> Vec<f64> {
        let (own, model) = match side {
            Side::Left => (m1, m2),
            Side::Right => (m2, m1),
        };
        let partner = Partner {
            model,
            side,
            gcr: Some(gcr),
        };
        let mut out = Self::extend(source, own, std::slice::from_ref(&partner), par);
        out.pop().expect("one measure vector per partner")
    }

    /// Converts one canonical measure to the *absolute* measure `v` that
    /// [`DiffFn::eval`] expects (`fraction × n` for lits, identity for the
    /// count-based families).
    fn abs_measure(raw: f64, n: u64) -> f64;

    /// Whether evaluation region `i` participates in the aggregate `g`.
    /// Non-participating regions (a class-focussed dt cell's other
    /// classes) report `0` in `per_region` and are excluded from the fold.
    /// Every region of a plain [`ModelFamily::gcr`] participates.
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

    fn extend(
        source: &CountSource<'_>,
        own: &LitsModel,
        partners: &[Partner<'_, Self>],
        par: Parallelism,
    ) -> Vec<Vec<f64>> {
        extend_supports(source, own, partners, par)
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

/// The lits measure-extension step: for each partner, the supports of
/// its regions w.r.t. the dataset behind `source`, read from `own`'s
/// recorded supports where `own` has the itemset. The itemsets `own`
/// lacks are counted once, as the canonical union over all partners, so
/// a snapshot paired with many partners counts each missing itemset
/// once. Every region list is canonical (the plain GCR is walked as the
/// [`merge_join`] of the two models, a given GCR against `own`), so each
/// list of lacking itemsets is ascending and reads its counts from the
/// union by one forward cursor.
fn extend_supports(
    source: &CountSource<'_>,
    own: &LitsModel,
    partners: &[Partner<'_, LitsFamily>],
    par: Parallelism,
) -> Vec<Vec<f64>> {
    let mut out = Vec::with_capacity(partners.len());
    // Per partner: (slot in its measure vector, itemset) of every region
    // `own` lacks, ascending.
    let mut lacking: Vec<Vec<(usize, &Itemset)>> = Vec::with_capacity(partners.len());
    for p in partners {
        let regions = p.gcr.map_or(own.len() + p.model.len(), |g| g.len());
        let mut supports = Vec::with_capacity(regions);
        let mut missing = Vec::new();
        let mut visit = |x, in_own: Option<usize>| {
            if in_own.is_none() {
                missing.push((supports.len(), x));
            }
            supports.push(in_own.map_or(0.0, |j| own.supports()[j]));
        };
        match p.gcr {
            Some(regions) => {
                for (x, at) in merge_join(regions, own.itemsets()) {
                    match at {
                        Joined::Both(_, j) => visit(x, Some(j)),
                        Joined::First(_) => visit(x, None),
                        Joined::Second(_) => {}
                    }
                }
            }
            None => {
                for (x, at) in merge_join(own.itemsets(), p.model.itemsets()) {
                    match at {
                        Joined::Both(i, _) | Joined::First(i) => visit(x, Some(i)),
                        Joined::Second(_) => visit(x, None),
                    }
                }
            }
        }
        out.push(supports);
        lacking.push(missing);
    }
    let mut union: Vec<&Itemset> = lacking.iter().flatten().map(|&(_, x)| x).collect();
    union.sort_unstable();
    union.dedup();
    if union.is_empty() {
        return out;
    }
    let to_count: Vec<Itemset> = union.iter().map(|&x| x.clone()).collect();
    // Cost-model dispatched: large workloads count through the source's
    // cached vertical tid-bitset index, batched by shared (k−1)-prefix
    // runs, instead of re-walking every transaction. Counts are identical
    // either way, so measures stay bit-identical to the horizontal scan.
    let counts = source.counts(&to_count, par);
    let n = source.len().max(1) as f64;
    for (supports, missing) in out.iter_mut().zip(&lacking) {
        let mut u = 0;
        for &(slot, x) in missing {
            while union[u] < x {
                u += 1;
            }
            supports[slot] = counts[u] as f64 / n;
        }
    }
    out
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

    fn extend(
        data: &&LabeledTable,
        own: &DtModel,
        partners: &[Partner<'_, Self>],
        par: Parallelism,
    ) -> Vec<Vec<f64>> {
        count_cells(data, own, partners, par)
            .into_iter()
            .map(|counts| counts.into_iter().map(|c| c as f64).collect())
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

/// `cell_of[i * l2 + j]` when leaf pair `(i, j)` has no GCR cell.
const NO_CELL: u32 = u32::MAX;

/// One partner's part of a dt cell scan: where each leaf pair's counts go.
struct CellRoute<'a> {
    partner: &'a DtModel,
    /// Whether the scanned dataset's tree is the pair's first model.
    own_left: bool,
    /// Leaves of the pair's second model.
    l2: usize,
    /// Classes per cell.
    k: usize,
    /// The cell of leaf pair `(i, j)` at `i * l2 + j`, or [`NO_CELL`].
    cell_of: Vec<u32>,
    n_cells: usize,
    /// The cells to re-check each row against, for a GCR whose cells may
    /// be smaller than their leaf pair's intersection.
    recheck: Option<&'a [OverlayCell]>,
}

impl<'a> CellRoute<'a> {
    fn new(own: &'a DtModel, p: &Partner<'a, DtFamily>) -> Self {
        let own_left = p.side == Side::Left;
        let (m1, m2) = if own_left {
            (own, p.model)
        } else {
            (p.model, own)
        };
        let (l1, l2) = (m1.leaves().len(), m2.leaves().len());
        let mut cell_of = vec![NO_CELL; l1 * l2];
        let mut n_cells = 0usize;
        let mut number = |(i, j): (usize, usize)| {
            if i < l1 && j < l2 {
                cell_of[i * l2 + j] = n_cells as u32;
            }
            n_cells += 1;
        };
        let (k, recheck) = match p.gcr {
            Some(gcr) => {
                gcr.cells.iter().for_each(|c| number((c.left, c.right)));
                let recheck = gcr.recheck.then_some(gcr.cells.as_slice());
                (gcr.n_classes as usize, recheck)
            }
            // The plain overlay's cells, numbered in `gcr_partition`'s
            // order without building their regions.
            None => {
                assert_eq!(m1.n_classes(), m2.n_classes(), "class sets must agree");
                overlay_pairs(m1.leaves(), m2.leaves()).for_each(number);
                (m1.n_classes() as usize, None)
            }
        };
        assert!(n_cells < NO_CELL as usize, "too many GCR cells");
        Self {
            partner: p.model,
            own_left,
            l2,
            k,
            cell_of,
            n_cells,
            recheck,
        }
    }
}

/// Routes each row of `data` to its GCR cell of every partner pair and
/// tallies per-class counts. A row is located in `own`'s tree once and in
/// each partner's tree once, through the trees' leaf indexes
/// ([`crate::region::BoxIndex`]); a dense `L1 × L2` table per partner maps
/// the leaf pair to its cell. The scan costs `O(rows · (1 + partners) ·
/// (attrs · log L + L/64))` for `L` leaves per tree instead of
/// `O(rows · |GCR|)`. A row in leaves `i` and `j` lies in
/// `leaf_i ∩ leaf_j`, so it is re-checked against its cell only when the
/// cells may be smaller than that (a focussed or hand-built [`DtGcr`]).
/// Row chunks fan out over `par` worker threads; the per-chunk tallies
/// merge by `u64` addition, bit-identical to a sequential scan.
fn count_cells(
    data: &LabeledTable,
    own: &DtModel,
    partners: &[Partner<'_, DtFamily>],
    par: Parallelism,
) -> Vec<Vec<u64>> {
    let routes: Vec<CellRoute<'_>> = partners.iter().map(|p| CellRoute::new(own, p)).collect();
    // The per-(cell, class) tallies index `counts[idx * k + label]`: a
    // label at or beyond `k` (a hand-built `DtGcr` whose class count
    // disagrees with the data) would silently land in a *neighbouring
    // cell's* slot rather than out of bounds, so guard it up front.
    for r in &routes {
        assert!(
            data.n_classes as usize <= r.k,
            "dataset has {} classes but the GCR was built for {}",
            data.n_classes,
            r.k
        );
    }
    let zeros = || -> Vec<Vec<u64>> { routes.iter().map(|r| vec![0; r.n_cells * r.k]).collect() };
    let routes = &routes;
    let parts = map_chunks(par, data.len(), crate::model::SCAN_GRAIN, |range| {
        let mut counts = zeros();
        for r in range {
            let row = data.table.row(r);
            let label = data.labels[r];
            let Some(mine) = own.locate(row) else {
                continue;
            };
            for (route, counts) in routes.iter().zip(&mut counts) {
                let Some(theirs) = route.partner.locate(row) else {
                    continue;
                };
                let (i, j) = if route.own_left {
                    (mine, theirs)
                } else {
                    (theirs, mine)
                };
                let idx = route.cell_of[i * route.l2 + j];
                if idx != NO_CELL
                    && route
                        .recheck
                        .is_none_or(|cells| cells[idx as usize].region.contains_labeled(row, label))
                {
                    counts[idx as usize * route.k + label as usize] += 1;
                }
            }
        }
        counts
    });
    let mut merged = zeros();
    for part in parts {
        for (acc, counts) in merged.iter_mut().zip(part) {
            for (a, c) in acc.iter_mut().zip(counts) {
                *a += c;
            }
        }
    }
    merged
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

    fn extend(
        data: &&Table,
        own: &ClusterModel,
        partners: &[Partner<'_, Self>],
        par: Parallelism,
    ) -> Vec<Vec<f64>> {
        // Each pair's boxes are counted on their own: pairs share no
        // routing state worth building.
        partners
            .iter()
            .map(|p| {
                let plain;
                let gcr = match p.gcr {
                    Some(gcr) => gcr,
                    None => {
                        plain = match p.side {
                            Side::Left => Self::gcr(own, p.model),
                            Side::Right => Self::gcr(p.model, own),
                        };
                        &plain
                    }
                };
                count_boxes(data, gcr, par)
                    .into_iter()
                    .map(|c| c as f64)
                    .collect()
            })
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
