//! The batch pairwise deviation engine with two-phase δ* screening,
//! generic over any [`ModelFamily`].
//!
//! Phase 1 evaluates the family's model-only upper bound
//! ([`ModelFamily::upper_bound`]) for every unordered pair — a pure
//! function of the two *models*, no dataset scans, effectively free (the
//! "Time for δ*" column of Figure 13). Phase 2 computes the exact
//! data-scan deviation only for pairs whose bound exceeds the caller's
//! threshold (or, in `--top K` mode, for the K pairs with the largest
//! bounds); by Theorem 4.2 (1) `δ(f_a, g) ≤ δ*`, so a pair whose bound
//! falls below the cut is *certified* uninteresting and the scan is
//! pruned without loss.
//!
//! Phase 2 scans each snapshot once, not once per pair: every snapshot
//! with a surviving pair is loaded, extended against every partner model
//! it shares a surviving pair with ([`ModelFamily::extend`]: one routing
//! pass per tree for dt, one count of the union of missing itemsets for
//! lits), and dropped. A pair's first extended side keeps its measures
//! until the second side is extended; that side folds `f` and `g` over
//! both ([`fold_measures`]) and frees them. A matrix therefore holds at
//! most one dataset per worker thread at a time, and measure vectors only
//! for pairs with one side extended: after `k` of `n` snapshots, up to
//! `k · (n − k)` vectors of `|GCR|` values, a quarter of all pairs midway
//! through a full matrix.
//!
//! Screening auto-disables exactly where the bound does not dominate
//! ([`ModelFamily::bound_dominates`]): for the lits family that means any
//! non-`f_a` difference function or a mixed-minsup pair; for dt any
//! non-`f_a` difference or a class-count mismatch; for cluster any
//! non-`f_a` difference. Undominated pairs always get an exact scan.
//!
//! Where the bound is additionally a pseudo-metric
//! ([`ModelFamily::BOUND_IS_METRIC`] — lits and dt, *not* cluster), the
//! bound grid is itself a distance matrix, so the collection embeds
//! ([`DeviationMatrix::embed`]) without any exact scan; cluster matrices
//! embed over their exact cells instead.
//!
//! The bounds fan out over [`map_indices`] in pair order, and each
//! snapshot's extension and each pair's fold are themselves
//! thread-count-invariant whichever worker runs them, so the whole matrix
//! inherits the workspace determinism contract: bit-identical results for
//! any worker-thread count.

use focus_core::deviation::fold_measures;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::embed::DistanceMatrix;
use focus_core::family::{ModelFamily, Partner, Side};
use focus_exec::{chunk_ranges, join, map_indices, Parallelism};
use std::borrow::Borrow;
use std::sync::Mutex;

/// A named, recoverable failure of the matrix engine: invalid screening
/// parameters or an impossible embedding request.
#[derive(Debug, Clone, PartialEq)]
pub enum MatrixError {
    /// The screening threshold was NaN or negative. A NaN threshold makes
    /// every `bound > threshold` comparison false-ish in surprising ways
    /// and a negative one silently disables pruning — both are almost
    /// certainly caller bugs, so they are rejected by name instead.
    InvalidThreshold(f64),
    /// `embed(k)` was asked for at least as many dimensions as there are
    /// snapshots: classical MDS of `n` points spans at most `n − 1`
    /// dimensions, so the extra coordinates would be meaningless zeros.
    EmbedDims {
        /// Requested dimension count.
        k: usize,
        /// Number of snapshots in the collection.
        n: usize,
    },
    /// A distance was required for a pair whose cell is unavailable:
    /// embedding a non-metric matrix needs an exact value for *every*
    /// pair, but this one's scan was pruned. Silently substituting NaN
    /// would feed garbage into MDS, so the missing cell is reported by
    /// name instead — recompute at threshold `0.0` to embed.
    MissingCell {
        /// Row of the missing cell.
        i: usize,
        /// Column of the missing cell.
        j: usize,
    },
}

impl std::fmt::Display for MatrixError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixError::InvalidThreshold(t) => write!(
                f,
                "invalid screening threshold {t}: must be a non-negative number"
            ),
            MatrixError::EmbedDims { k, n } => write!(
                f,
                "cannot embed {n} snapshot(s) in {k} dimensions: k must satisfy 1 <= k < n"
            ),
            MatrixError::MissingCell { i, j } => write!(
                f,
                "no distance available for pair ({i}, {j}): its exact scan was pruned \
                 by screening; recompute with threshold 0.0 to embed"
            ),
        }
    }
}

impl std::error::Error for MatrixError {}

impl From<MatrixError> for std::io::Error {
    fn from(e: MatrixError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string())
    }
}

/// Parameters for [`deviation_matrix`].
#[derive(Debug, Clone, Copy)]
pub struct MatrixParams {
    /// Difference function for the exact scans (the bound is always the
    /// `f_a` bound of Definition 4.1).
    pub diff: DiffFn,
    /// Aggregate `g ∈ {sum, max}`, used by both the bound and the scans.
    pub agg: AggFn,
    /// Screening threshold: pairs with `δ* ≤ threshold` skip the exact
    /// scan. `0.0` (the default) scans every pair with a positive bound.
    /// Must be non-negative and not NaN ([`MatrixParams::validate`]).
    ///
    /// Screening only applies to pairs whose bound *dominates* the chosen
    /// deviation ([`ModelFamily::bound_dominates`] — for lits: `f_a` and a
    /// shared minsup); every other pair is scanned regardless, since
    /// pruning there would silently discard pairs the bound does not
    /// certify.
    pub threshold: f64,
    /// `--top K` screening: when `Some(k)`, the `k` screenable pairs with
    /// the *largest* bounds get exact scans (ties broken by pair index)
    /// and the rest are pruned — `threshold` is not consulted for the cut
    /// (it is still validated). Pairs whose bound does not dominate are
    /// scanned as always.
    pub top: Option<usize>,
    /// Worker threads for both fan-out phases.
    pub par: Parallelism,
}

impl Default for MatrixParams {
    fn default() -> Self {
        Self {
            diff: DiffFn::Absolute,
            agg: AggFn::Sum,
            threshold: 0.0,
            top: None,
            par: Parallelism::Global,
        }
    }
}

impl MatrixParams {
    /// Rejects screening parameters that would otherwise fail silently: a
    /// NaN or negative threshold no longer *disables* pruning — it is an
    /// error by name.
    pub fn validate(&self) -> Result<(), MatrixError> {
        if self.threshold.is_nan() || self.threshold < 0.0 {
            return Err(MatrixError::InvalidThreshold(self.threshold));
        }
        Ok(())
    }
}

/// The screened pairwise deviation matrix of a snapshot collection.
///
/// (No `PartialEq`: pruned cells are stored as NaN, so derived equality
/// would be reflexively false — compare cells via the accessors instead.)
#[derive(Debug, Clone)]
pub struct DeviationMatrix {
    names: Vec<String>,
    n: usize,
    /// Row-major symmetric δ* bounds (zero diagonal).
    bounds: Vec<f64>,
    /// Row-major exact deviations; NaN where the scan was pruned (see
    /// [`DeviationMatrix::exact`] for the `Option` view).
    exact: Vec<f64>,
    threshold: f64,
    diff: DiffFn,
    scanned: usize,
    /// Whether the family's δ* is a pseudo-metric — gates embedding over
    /// the bound grid.
    metric: bool,
}

/// Unordered pairs `(i, j)`, `i < j`, in lexicographic order — the one
/// canonical pair enumeration both phases and all consumers share.
fn pairs(n: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::with_capacity(n * n.saturating_sub(1) / 2);
    for i in 0..n {
        for j in (i + 1)..n {
            out.push((i, j));
        }
    }
    out
}

/// Phase 1: the δ* bound for every unordered pair, in [`pairs`] order,
/// fanned out over `par`. Model-only — no dataset scans.
pub(crate) fn pair_bounds<F: ModelFamily>(
    models: &[F::Model],
    agg: AggFn,
    par: Parallelism,
) -> Vec<f64> {
    let pair_list = pairs(models.len());
    map_indices(par, pair_list.len(), |p| {
        let (i, j) = pair_list[p];
        F::upper_bound(&models[i], &models[j], agg).expect("every family defines a bound")
    })
}

/// The pair indices (into [`pairs`] order) whose exact scan survives
/// screening under `params`. A pair can be pruned only when its bound is
/// certified to dominate ([`ModelFamily::bound_dominates`]); among those,
/// either the threshold cut or the top-K cut applies.
fn surviving_pairs<F: ModelFamily>(
    models: &[F::Model],
    bounds: &[f64],
    params: &MatrixParams,
) -> Vec<usize> {
    let pair_list = pairs(models.len());
    let dominated: Vec<bool> = pair_list
        .iter()
        .map(|&(i, j)| F::bound_dominates(params.diff, &models[i], &models[j]))
        .collect();
    match params.top {
        None => (0..bounds.len())
            .filter(|&p| !dominated[p] || bounds[p] > params.threshold)
            .collect(),
        Some(k) => {
            // Rank the screenable pairs by bound, largest first; ties break
            // to the lower pair index so the cut is deterministic.
            let mut ranked: Vec<usize> = (0..bounds.len()).filter(|&p| dominated[p]).collect();
            ranked.sort_by(|&a, &b| bounds[b].total_cmp(&bounds[a]).then(a.cmp(&b)));
            ranked.truncate(k);
            let keep: std::collections::HashSet<usize> = ranked.into_iter().collect();
            (0..bounds.len())
                .filter(|&p| !dominated[p] || keep.contains(&p))
                .collect()
        }
    }
}

/// Computes the screened pairwise deviation matrix of a collection of any
/// model family.
///
/// `models[k]` and `datasets[k]` must describe the same snapshot `k`
/// (named `names[k]`). Datasets whose every pair is pruned are never
/// touched.
///
/// Bit-identical for every worker-thread count: pair enumeration, chunk
/// decomposition, and merge order are all pure functions of the input
/// sizes, and the scans are themselves thread-count-invariant.
pub fn deviation_matrix<F: ModelFamily>(
    models: &[F::Model],
    datasets: &[F::Dataset],
    names: Vec<String>,
    params: &MatrixParams,
) -> Result<DeviationMatrix, MatrixError> {
    params.validate()?;
    assert_eq!(models.len(), datasets.len(), "one dataset per model");
    // Phase 1: model-only bounds for every pair. One pair is one work
    // item; the bound needs no dataset scan, so this phase is cheap even
    // for large collections.
    let bounds = pair_bounds::<F>(models, params.agg, params.par);
    let load = |k: usize| Ok::<_, std::convert::Infallible>(&datasets[k]);
    match deviation_matrix_with_bounds::<F, _, _>(models, names, params, bounds, load) {
        Ok(m) => Ok(m),
        Err(never) => match never {},
    }
}

/// [`deviation_matrix`] with the phase-1 bounds already in hand (in
/// [`pairs`] order) and the datasets behind a loader: `load(k)` returns
/// snapshot `k`'s dataset, or an error that ends the matrix. It is called
/// at most once per snapshot, only for snapshots with a surviving pair,
/// from inside the fan-out (one contiguous run of snapshots per worker
/// thread), and each dataset is dropped as soon as its snapshot is
/// extended. When several loads fail, the error of the
/// lowest-numbered snapshot is returned, whatever the thread count.
/// `params` must already be validated.
pub(crate) fn deviation_matrix_with_bounds<F, D, E>(
    models: &[F::Model],
    names: Vec<String>,
    params: &MatrixParams,
    pair_bounds: Vec<f64>,
    load: impl Fn(usize) -> Result<D, E> + Sync,
) -> Result<DeviationMatrix, E>
where
    F: ModelFamily,
    D: Borrow<F::Dataset>,
    E: Send,
{
    let n = models.len();
    assert_eq!(n, names.len(), "one name per model");
    let pair_list = pairs(n);
    assert_eq!(pair_list.len(), pair_bounds.len(), "one bound per pair");

    // Screening: where the bound dominates the chosen deviation
    // (Theorem 4.2 (1) for lits), falling below the cut certifies the
    // pair as uninteresting; everywhere else the certificate is void and
    // the pair survives.
    let survivors = surviving_pairs::<F>(models, &pair_bounds, params);

    // Phase 2, per snapshot: `jobs[k]` lists the surviving pairs snapshot
    // `k` takes part in, ascending. A snapshot is loaded, extended once
    // against every partner, and dropped. Its measures for a pair wait in
    // `parked` until the pair's other side is extended; that side folds f
    // and g over both and frees them, so measures are held only for pairs
    // with one side done. Every region of a plain GCR participates.
    let mut jobs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (s, &p) in survivors.iter().enumerate() {
        let (i, j) = pair_list[p];
        jobs[i].push(s);
        jobs[j].push(s);
    }
    let parked: Vec<_> = survivors.iter().map(|_| Mutex::new(None)).collect();
    let extend_one = |k: usize, par: Parallelism| -> Result<Vec<(usize, f64)>, E> {
        let partners: Vec<Partner<'_, F>> = jobs[k]
            .iter()
            .map(|&s| {
                let (i, j) = pair_list[survivors[s]];
                let (model, side) = if i == k {
                    (&models[j], Side::Left)
                } else {
                    (&models[i], Side::Right)
                };
                Partner {
                    model,
                    side,
                    gcr: None,
                }
            })
            .collect();
        let (len, measures) = {
            let data = load(k)?;
            let source = F::source(data.borrow());
            let measures = F::extend(&source, &models[k], &partners, par);
            (F::source_len(&source), measures)
        };
        let mut folded = Vec::new();
        for ((&s, partner), mine) in jobs[k].iter().zip(&partners).zip(measures) {
            let theirs = {
                let mut slot = parked[s].lock().expect("no fold panicked");
                match slot.take() {
                    Some(theirs) => theirs,
                    None => {
                        *slot = Some((len, mine));
                        continue;
                    }
                }
            };
            let ((n1, raw1), (n2, raw2)) = match partner.side {
                Side::Left => ((len, mine), theirs),
                Side::Right => (theirs, (len, mine)),
            };
            let (value, _) =
                fold_measures::<F>(&raw1, &raw2, n1, n2, params.diff, params.agg, par, |_| true);
            folded.push((s, value));
        }
        Ok(folded)
    };
    // The snapshots with a job, cut into one contiguous run per thread.
    // Each run goes in snapshot order and stops at its first error, so the
    // first error in snapshot order is the lowest-numbered failing
    // snapshot's.
    let scanned: Vec<usize> = (0..n).filter(|&k| !jobs[k].is_empty()).collect();
    let threads = params.par.threads();
    let bins: Vec<&[usize]> = chunk_ranges(scanned.len(), threads)
        .into_iter()
        .map(|r| &scanned[r])
        .collect();
    let mut exact_vals = vec![f64::NAN; survivors.len()];
    for result in run_bins(&bins, threads, &extend_one).into_iter().flatten() {
        for (s, value) in result? {
            exact_vals[s] = value;
        }
    }

    let mut bounds = vec![0.0; n * n];
    for (p, &(i, j)) in pair_list.iter().enumerate() {
        bounds[i * n + j] = pair_bounds[p];
        bounds[j * n + i] = pair_bounds[p];
    }
    let mut exact = vec![f64::NAN; n * n];
    for (s, &p) in survivors.iter().enumerate() {
        let (i, j) = pair_list[p];
        exact[i * n + j] = exact_vals[s];
        exact[j * n + i] = exact_vals[s];
    }
    Ok(DeviationMatrix {
        names,
        n,
        bounds,
        exact,
        threshold: params.threshold,
        diff: params.diff,
        scanned: survivors.len(),
        metric: F::BOUND_IS_METRIC,
    })
}

/// Runs `work(item, par)` over every item of every bin, each bin on its
/// own share of `threads` worker threads (one bin per thread when there
/// are at least as many threads as bins). A bin runs its items in order
/// and stops at its first error, which is then its lowest failing item.
/// Returns each bin's results, bins in order.
fn run_bins<R: Send, E: Send>(
    bins: &[&[usize]],
    threads: usize,
    work: &(impl Fn(usize, Parallelism) -> Result<R, E> + Sync),
) -> Vec<Vec<Result<R, E>>> {
    match bins {
        [] => Vec::new(),
        [bin] => {
            let par = Parallelism::Threads(threads);
            let mut out = Vec::with_capacity(bin.len());
            for &item in *bin {
                let result = work(item, par);
                let failed = result.is_err();
                out.push(result);
                if failed {
                    break;
                }
            }
            vec![out]
        }
        _ => {
            let mid = bins.len() / 2;
            let left = (threads * mid / bins.len()).max(1);
            let right = threads.saturating_sub(left).max(1);
            let (mut a, b) = join(
                Parallelism::Threads(threads),
                || run_bins(&bins[..mid], left, work),
                || run_bins(&bins[mid..], right, work),
            );
            a.extend(b);
            a
        }
    }
}

impl DeviationMatrix {
    /// Number of snapshots.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the collection is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Snapshot names, in collection order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The screening threshold the matrix was computed at.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The difference function the exact scans used.
    pub fn diff(&self) -> DiffFn {
        self.diff
    }

    /// Number of unordered pairs, `n·(n−1)/2`.
    pub fn n_pairs(&self) -> usize {
        self.n * self.n.saturating_sub(1) / 2
    }

    /// Number of pairs whose exact scan ran (bound above the cut).
    pub fn scanned(&self) -> usize {
        self.scanned
    }

    /// Number of pairs whose exact scan was pruned by the δ* screen.
    pub fn pruned(&self) -> usize {
        self.n_pairs() - self.scanned
    }

    /// True: every family defines a model-only δ* bound, so every matrix
    /// carries one per pair.
    pub fn has_bounds(&self) -> bool {
        true
    }

    /// True when the family's δ* is a pseudo-metric (lits, dt): the bound
    /// grid is a valid distance matrix for embedding. False for cluster
    /// matrices — their bound violates `δ*(M, M) = 0` when clusters
    /// overlap.
    pub fn metric(&self) -> bool {
        self.metric
    }

    /// The δ* upper bound for a pair (`0` on the diagonal).
    pub fn bound(&self, i: usize, j: usize) -> f64 {
        self.bounds[i * self.n + j]
    }

    /// The exact deviation for a pair, if its scan survived screening.
    pub fn exact(&self, i: usize, j: usize) -> Option<f64> {
        let v = self.exact[i * self.n + j];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// The best available deviation estimate for a pair: the exact value
    /// where scanned, else the δ* bound (an upper bound on the truth).
    pub fn value(&self, i: usize, j: usize) -> f64 {
        self.exact(i, j).unwrap_or_else(|| self.bound(i, j))
    }

    /// The collection as a [`DistanceMatrix`]: the δ* bounds where they
    /// form a metric (Theorem 4.2 (2–3) — lits, dt), else the exact
    /// deviations (cluster's non-metric bound must never feed MDS).
    ///
    /// Errors with [`MatrixError::MissingCell`] when a pruned exact scan
    /// leaves a cell of the exact path unavailable, instead of silently
    /// feeding NaN into the embedding.
    pub fn distance_matrix(&self) -> Result<DistanceMatrix, MatrixError> {
        let metric_cell = |i: usize, j: usize| self.bound(i, j);
        let exact_cell = |i: usize, j: usize| {
            if i == j {
                0.0
            } else {
                self.exact[i * self.n + j]
            }
        };
        let cell: &dyn Fn(usize, usize) -> f64 = if self.metric {
            &metric_cell
        } else {
            &exact_cell
        };
        for i in 0..self.n {
            for j in (i + 1)..self.n {
                if cell(i, j).is_nan() {
                    return Err(MatrixError::MissingCell { i, j });
                }
            }
        }
        Ok(DistanceMatrix::from_fn(self.n, cell))
    }

    /// Classical MDS coordinates of the collection in `k` dimensions
    /// under the matrix's metric (Section 4.1.1's visual-comparison
    /// embedding). `n` points span at most `n − 1` dimensions, so
    /// `k >= n` (and `k == 0`) are rejected instead of producing junk
    /// zero coordinates; an unavailable cell is
    /// [`MatrixError::MissingCell`], never a NaN coordinate.
    pub fn embed(&self, k: usize) -> Result<Vec<Vec<f64>>, MatrixError> {
        if k == 0 || k >= self.n {
            return Err(MatrixError::EmbedDims { k, n: self.n });
        }
        Ok(self.distance_matrix()?.embed(k))
    }

    /// Embedding stress of `coords` against the matrix's metric. Fails
    /// like [`DeviationMatrix::distance_matrix`] when a cell is missing.
    pub fn stress(&self, coords: &[Vec<f64>]) -> Result<f64, MatrixError> {
        Ok(self.distance_matrix()?.stress(coords))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_dataset;
    use focus_core::data::{LabeledTable, Schema, Table, TransactionSet, Value};
    use focus_core::family::{ClusterFamily, DtFamily, LitsFamily};
    use focus_core::model::{induce_dt_measures, ClusterModel, DtModel, LitsModel};
    use focus_core::region::BoxBuilder;
    use focus_mining::{Apriori, AprioriParams};
    use std::sync::Arc;

    /// The lits matrix at default parameters except `threshold`.
    fn lits_matrix(
        models: &[LitsModel],
        datasets: &[TransactionSet],
        names: Vec<String>,
        threshold: f64,
    ) -> Result<DeviationMatrix, MatrixError> {
        let params = MatrixParams {
            threshold,
            ..MatrixParams::default()
        };
        deviation_matrix::<LitsFamily>(models, datasets, names, &params)
    }

    fn collection(
        seeds_skews: &[(u64, f64)],
    ) -> (Vec<LitsModel>, Vec<TransactionSet>, Vec<String>) {
        let miner = Apriori::new(
            AprioriParams::with_minsup(0.15)
                .max_len(10)
                .min_count_floor(2),
        );
        let datasets: Vec<TransactionSet> = seeds_skews
            .iter()
            .map(|&(s, k)| random_dataset(s, 300, k))
            .collect();
        let models = datasets.iter().map(|d| miner.mine(d)).collect();
        let names = (0..datasets.len()).map(|i| format!("s{i}")).collect();
        (models, datasets, names)
    }

    #[test]
    fn screening_is_sound_and_complete() {
        let (models, datasets, names) = collection(&[(1, 0.0), (2, 0.1), (3, 0.9), (4, 1.0)]);
        let full = lits_matrix(&models, &datasets, names.clone(), 0.0).unwrap();
        assert_eq!(full.scanned(), 6);
        assert_eq!(full.pruned(), 0);
        assert!(full.has_bounds());

        // Pick a threshold strictly inside the observed bound range so the
        // screen genuinely splits the pairs.
        let mut bs: Vec<f64> = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (i, j)))
            .map(|(i, j)| full.bound(i, j))
            .collect();
        bs.sort_by(f64::total_cmp);
        let threshold = (bs[2] + bs[3]) / 2.0;
        let screened = lits_matrix(&models, &datasets, names, threshold).unwrap();
        assert!(screened.pruned() > 0 && screened.scanned() > 0);
        for i in 0..4 {
            for j in (i + 1)..4 {
                // Bounds are unaffected by screening.
                assert_eq!(screened.bound(i, j).to_bits(), full.bound(i, j).to_bits());
                match screened.exact(i, j) {
                    // Scanned pairs: identical to the unscreened run, and
                    // dominated by the bound (Theorem 4.2 (1)).
                    Some(e) => {
                        assert_eq!(e.to_bits(), full.exact(i, j).unwrap().to_bits());
                        assert!(e <= screened.bound(i, j) + 1e-12);
                        assert!(screened.bound(i, j) > threshold);
                    }
                    // Pruned pairs: certified below threshold.
                    None => assert!(screened.bound(i, j) <= threshold),
                }
            }
        }
    }

    #[test]
    fn infinite_threshold_prunes_everything() {
        let (models, datasets, names) = collection(&[(1, 0.0), (2, 0.5), (3, 1.0)]);
        let m = lits_matrix(&models, &datasets, names, f64::INFINITY).unwrap();
        assert_eq!(m.scanned(), 0);
        assert_eq!(m.pruned(), 3);
        // `value` falls back to the bound for pruned pairs.
        assert_eq!(m.value(0, 1).to_bits(), m.bound(0, 1).to_bits());
    }

    #[test]
    fn nan_and_negative_thresholds_are_named_errors() {
        let (models, datasets, names) = collection(&[(1, 0.0), (2, 1.0)]);
        for bad in [f64::NAN, -1.0, f64::NEG_INFINITY] {
            let err = lits_matrix(&models, &datasets, names.clone(), bad).unwrap_err();
            // (No `assert_eq!` against the NaN case: the payload would
            // compare NaN ≠ NaN.)
            assert!(
                matches!(err, MatrixError::InvalidThreshold(t) if t.to_bits() == bad.to_bits()),
                "{err:?}"
            );
            assert!(err.to_string().contains("threshold"), "{err}");
        }
    }

    #[test]
    fn top_k_scans_the_k_largest_bounds() {
        let (models, datasets, names) = collection(&[(1, 0.0), (2, 0.1), (3, 0.9), (4, 1.0)]);
        let full = lits_matrix(&models, &datasets, names.clone(), 0.0).unwrap();
        let topped = deviation_matrix::<LitsFamily>(
            &models,
            &datasets,
            names,
            &MatrixParams {
                top: Some(2),
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert_eq!(topped.scanned(), 2);
        assert_eq!(topped.pruned(), 4);
        // The scanned pairs are exactly the two largest bounds, and their
        // exact values match the unscreened run bit-for-bit.
        let full_ref = &full;
        let mut ranked: Vec<(f64, usize, usize)> = (0..4)
            .flat_map(|i| ((i + 1)..4).map(move |j| (full_ref.bound(i, j), i, j)))
            .collect();
        ranked.sort_by(|a, b| b.0.total_cmp(&a.0));
        for (rank, &(_, i, j)) in ranked.iter().enumerate() {
            match topped.exact(i, j) {
                Some(e) => {
                    assert!(rank < 2, "pair ({i},{j}) scanned but not in top 2");
                    assert_eq!(e.to_bits(), full.exact(i, j).unwrap().to_bits());
                }
                None => assert!(rank >= 2, "pair ({i},{j}) in top 2 but pruned"),
            }
        }
    }

    #[test]
    fn top_k_never_prunes_undominated_pairs() {
        // A mixed-minsup pair is not certified by the bound, so even
        // `top = Some(0)` must scan it.
        let datasets = vec![random_dataset(1, 300, 0.0), random_dataset(2, 300, 0.0)];
        let mine = |d: &TransactionSet, ms: f64| {
            Apriori::new(
                AprioriParams::with_minsup(ms)
                    .max_len(10)
                    .min_count_floor(2),
            )
            .mine(d)
        };
        let models = vec![mine(&datasets[0], 0.6), mine(&datasets[1], 0.01)];
        let m = deviation_matrix::<LitsFamily>(
            &models,
            &datasets,
            vec!["hi".into(), "lo".into()],
            &MatrixParams {
                top: Some(0),
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert_eq!(m.scanned(), 1);
        assert!(m.exact(0, 1).is_some());
    }

    #[test]
    fn matrix_is_symmetric_with_zero_diagonal() {
        let (models, datasets, names) = collection(&[(1, 0.0), (5, 0.4), (9, 0.8)]);
        let m = lits_matrix(&models, &datasets, names, 0.0).unwrap();
        for i in 0..3 {
            assert_eq!(m.bound(i, i), 0.0);
            assert_eq!(m.exact(i, i), None);
            for j in 0..3 {
                assert_eq!(m.bound(i, j).to_bits(), m.bound(j, i).to_bits());
                assert_eq!(m.value(i, j).to_bits(), m.value(j, i).to_bits());
            }
        }
    }

    #[test]
    fn embedding_places_similar_snapshots_closer() {
        // Two tight groups; the δ* embedding must separate them.
        let (models, datasets, names) = collection(&[(1, 0.0), (2, 0.0), (3, 1.0), (4, 1.0)]);
        let m = lits_matrix(&models, &datasets, names, f64::INFINITY).unwrap();
        let coords = m.embed(2).unwrap();
        let dist = |a: usize, b: usize| {
            coords[a]
                .iter()
                .zip(&coords[b])
                .map(|(x, y)| (x - y) * (x - y))
                .sum::<f64>()
                .sqrt()
        };
        assert!(dist(0, 1) < dist(0, 2), "{} vs {}", dist(0, 1), dist(0, 2));
        assert!(dist(2, 3) < dist(2, 0), "{} vs {}", dist(2, 3), dist(2, 0));
    }

    #[test]
    fn embed_rejects_too_many_dimensions() {
        let (models, datasets, names) = collection(&[(1, 0.0), (2, 0.5), (3, 1.0)]);
        let m = lits_matrix(&models, &datasets, names, f64::INFINITY).unwrap();
        assert_eq!(
            m.embed(3).unwrap_err(),
            MatrixError::EmbedDims { k: 3, n: 3 }
        );
        assert_eq!(
            m.embed(0).unwrap_err(),
            MatrixError::EmbedDims { k: 0, n: 3 }
        );
        assert_eq!(m.embed(2).unwrap().len(), 3);
    }

    #[test]
    fn empty_and_singleton_collections() {
        let m = lits_matrix(&[], &[], Vec::new(), 0.0).unwrap();
        assert_eq!(m.n_pairs(), 0);
        assert!(m.is_empty());
        let (models, datasets, names) = collection(&[(1, 0.0)]);
        let m = lits_matrix(&models, &datasets, names, 0.0).unwrap();
        assert_eq!((m.n_pairs(), m.scanned(), m.pruned()), (0, 0, 0));
        // A single point spans zero dimensions: embedding is an error, not
        // a junk coordinate row.
        assert!(matches!(m.embed(2), Err(MatrixError::EmbedDims { .. })));
    }

    #[test]
    fn screening_disabled_for_mixed_minsups() {
        // Theorem 4.2's domination argument needs a shared minsup: with
        // ms1 = 0.6 vs ms2 = 0.01, an itemset known only in model 2 may
        // have a large (but sub-0.6) support in dataset 1, so the bound's
        // per-itemset contribution understates the truth. Such a pair
        // must never be pruned, whatever the threshold.
        let datasets = vec![random_dataset(1, 300, 0.0), random_dataset(2, 300, 0.0)];
        let mine = |d: &TransactionSet, ms: f64| {
            Apriori::new(
                AprioriParams::with_minsup(ms)
                    .max_len(10)
                    .min_count_floor(2),
            )
            .mine(d)
        };
        let models = vec![mine(&datasets[0], 0.6), mine(&datasets[1], 0.01)];
        let names = vec!["hi-ms".to_string(), "lo-ms".to_string()];
        let m = deviation_matrix::<LitsFamily>(
            &models,
            &datasets,
            names,
            &MatrixParams {
                threshold: f64::INFINITY,
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert_eq!(m.pruned(), 0, "mixed-minsup pair must not be pruned");
        assert!(m.exact(0, 1).is_some());
        // Same-minsup control: the screen works again.
        let models = vec![mine(&datasets[0], 0.2), mine(&datasets[1], 0.2)];
        let m = deviation_matrix::<LitsFamily>(
            &models,
            &datasets,
            vec!["a".to_string(), "b".to_string()],
            &MatrixParams {
                threshold: f64::INFINITY,
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert_eq!(m.pruned(), 1);
    }

    #[test]
    fn screening_disabled_for_non_absolute_diffs() {
        // δ* bounds only δ(f_a, g) (Theorem 4.2): under f_s the "bound"
        // does not dominate, so even an infinite threshold must not prune
        // — every pair gets its exact scan.
        let (models, datasets, names) = collection(&[(1, 0.0), (2, 0.0), (3, 1.0)]);
        let m = deviation_matrix::<LitsFamily>(
            &models,
            &datasets,
            names,
            &MatrixParams {
                diff: DiffFn::Scaled,
                threshold: f64::INFINITY,
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert_eq!(m.pruned(), 0, "f_s screening would be unsound");
        assert_eq!(m.scanned(), 3);
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(m.exact(i, j).is_some());
            }
        }
    }

    /// Three boundary trees: `t0`/`t1` share a leaf partition (split at
    /// 30) but are induced from different row counts, so their bound is a
    /// small measure difference; `t2` splits elsewhere, so no leaf
    /// matches and the bound charges the full mass of both trees.
    fn dt_collection() -> (Vec<DtModel>, Vec<LabeledTable>, Vec<String>) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut models = Vec::new();
        let mut datasets = Vec::new();
        let mut names = Vec::new();
        for (i, (boundary, rows)) in [(30.0, 120), (30.0, 150), (70.0, 120)].iter().enumerate() {
            let mut d = LabeledTable::new(Arc::clone(&schema), 2);
            for r in 0..*rows {
                let x = r as f64;
                d.push_row(&[Value::Num(x)], u32::from(x < *boundary));
            }
            let model = induce_dt_measures(
                vec![
                    BoxBuilder::new(&schema).lt("x", *boundary).build(),
                    BoxBuilder::new(&schema).ge("x", *boundary).build(),
                ],
                &d,
            );
            models.push(model);
            datasets.push(d);
            names.push(format!("t{i}"));
        }
        (models, datasets, names)
    }

    #[test]
    fn dt_family_matrix_screens_on_the_leaf_mass_bound() {
        let (models, datasets, names) = dt_collection();
        let full = deviation_matrix::<DtFamily>(
            &models,
            &datasets,
            names.clone(),
            &MatrixParams {
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert!(full.has_bounds());
        assert!(full.metric());
        // Shared-structure pair: small bound. Structurally different
        // pairs: the bound charges both trees' full mass (2.0).
        assert!(full.bound(0, 1) < 1.0, "{}", full.bound(0, 1));
        assert!((full.bound(0, 2) - 2.0).abs() < 1e-12);
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(full.exact(i, j).unwrap() <= full.bound(i, j) + 1e-12);
            }
        }
        // A threshold between the two regimes prunes exactly the similar
        // pair; surviving cells are bit-identical to the full scan.
        let screened = deviation_matrix::<DtFamily>(
            &models,
            &datasets,
            names,
            &MatrixParams {
                threshold: 1.0,
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert_eq!((screened.scanned(), screened.pruned()), (2, 1));
        assert_eq!(screened.exact(0, 1), None);
        assert_eq!(
            screened.exact(0, 2).unwrap().to_bits(),
            full.exact(0, 2).unwrap().to_bits()
        );
        // δ* is a metric for dt: the embedding runs off the bound grid
        // even though one exact cell is pruned.
        let coords = screened.embed(2).unwrap();
        assert_eq!(coords.len(), 3);
    }

    /// Cluster collection honouring the dominance contract (measures are
    /// box selectivities): `c0`/`c1` share their (disjoint) boxes with
    /// slightly different masses; `c2` clusters elsewhere.
    fn cluster_collection() -> (Vec<ClusterModel>, Vec<Table>, Vec<String>) {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let shared = |s: &Arc<Schema>| {
            vec![
                BoxBuilder::new(s).range("x", 0.0, 30.0).build(),
                BoxBuilder::new(s).range("x", 50.0, 80.0).build(),
            ]
        };
        let far = |s: &Arc<Schema>| {
            vec![
                BoxBuilder::new(s).range("x", 100.0, 130.0).build(),
                BoxBuilder::new(s).range("x", 150.0, 180.0).build(),
            ]
        };
        let mut models = Vec::new();
        let mut datasets = Vec::new();
        let mut names = Vec::new();
        for (i, (boxes, span)) in [
            (shared(&schema), 90.0),
            (shared(&schema), 100.0),
            (far(&schema), 190.0),
        ]
        .into_iter()
        .enumerate()
        {
            let mut t = Table::new(Arc::clone(&schema));
            for r in 0..100 {
                t.push_row(&[Value::Num(r as f64 * span / 100.0)]);
            }
            let n = t.len() as f64;
            let measures = boxes
                .iter()
                .map(|b| t.rows().filter(|row| b.contains(row)).count() as f64 / n)
                .collect();
            models.push(ClusterModel::new(boxes, measures, t.len() as u64));
            datasets.push(t);
            names.push(format!("c{i}"));
        }
        (models, datasets, names)
    }

    #[test]
    fn cluster_family_matrix_screens_but_never_embeds_bounds() {
        let (models, datasets, names) = cluster_collection();
        let full = deviation_matrix::<ClusterFamily>(
            &models,
            &datasets,
            names.clone(),
            &MatrixParams {
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert!(full.has_bounds());
        assert!(!full.metric(), "cluster δ* is not a metric");
        for i in 0..3 {
            for j in (i + 1)..3 {
                assert!(full.exact(i, j).unwrap() <= full.bound(i, j) + 1e-12);
            }
        }
        // The shared-box pair's bound is just the measure differences;
        // a threshold above it prunes that pair and keeps the rest.
        let cut = full.bound(0, 1);
        assert!(cut < full.bound(0, 2), "{cut} vs {}", full.bound(0, 2));
        let screened = deviation_matrix::<ClusterFamily>(
            &models,
            &datasets,
            names,
            &MatrixParams {
                threshold: cut,
                par: Parallelism::Sequential,
                ..MatrixParams::default()
            },
        )
        .unwrap();
        assert!(screened.pruned() >= 1 && screened.scanned() >= 1);
        for i in 0..3 {
            for j in (i + 1)..3 {
                if let Some(e) = screened.exact(i, j) {
                    assert_eq!(e.to_bits(), full.exact(i, j).unwrap().to_bits());
                }
            }
        }
        // Non-metric: embedding must use exact values, so a pruned cell is
        // a named error — never NaN coordinates.
        let err = screened.embed(2).unwrap_err();
        assert!(matches!(err, MatrixError::MissingCell { .. }), "{err:?}");
        assert!(err.to_string().contains("no distance available"), "{err}");
        // The unscreened matrix has every exact cell and embeds fine.
        assert_eq!(full.embed(2).unwrap().len(), 3);
        assert!(full.stress(&full.embed(2).unwrap()).is_ok());
    }
}
