//! The batch pairwise deviation engine with two-phase δ* screening,
//! generic over any [`ModelFamily`].
//!
//! Phase 1 evaluates the family's model-only upper bound
//! ([`ModelFamily::upper_bound`]) for every unordered pair — a pure
//! function of the two *models*, no dataset scans, effectively free (the
//! "Time for δ*" column of Figure 13). Phase 2 runs the exact data-scan
//! deviation ([`focus_core::deviation::deviate_over_sources`], over one
//! shared access handle per snapshot) only for pairs whose
//! bound exceeds the caller's threshold (or, in `--top K` mode, for the K
//! pairs with the largest bounds); by Theorem 4.2 (1) `δ(f_a, g) ≤ δ*`, so
//! a pair whose bound falls below the cut is *certified* uninteresting and
//! the scan is pruned without loss.
//!
//! Screening auto-disables exactly where the bound does not dominate
//! ([`ModelFamily::bound_dominates`]): for the lits family that means any
//! non-`f_a` difference function or a mixed-minsup pair; for dt any
//! non-`f_a` difference or a class-count mismatch; for cluster any
//! non-`f_a` difference. Undominated pairs always get an exact scan.
//!
//! Where the bound is additionally a pseudo-metric
//! ([`ModelFamily::BOUND_IS_METRIC`] — lits and dt, *not* cluster),
//! incremental extension can go one step further: triangle-inequality
//! pruning ([`MatrixParams::triangle`]) decides many of the new pairs from
//! already-stored bounds via `|δ*(i,j) − δ*(j,new)| ≤ δ*(i,new) ≤
//! δ*(i,j) + δ*(j,new)` without evaluating δ* at all.
//!
//! Both phases fan out over [`map_indices`] in pair-index order, so the
//! whole matrix inherits the workspace determinism contract: bit-identical
//! results for any worker-thread count.

use focus_core::deviation::deviate_over_sources;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::embed::DistanceMatrix;
use focus_core::family::ModelFamily;
use focus_exec::{map_indices, Parallelism};

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
    /// Incremental matrix maintenance was asked to use `--top K`
    /// screening: the top-K cut is a *global* ranking over all pairs, so
    /// adding one snapshot can evict previously-scanned pairs and the
    /// result would no longer match a fresh computation. Use a threshold.
    IncrementalNeedsThreshold,
    /// The base matrix handed to incremental maintenance does not match
    /// the registry's current collection or the requested parameters
    /// (wrong names, size, threshold, or difference/aggregate function).
    BaseMismatch(String),
    /// A distance was required for a pair whose cell is unavailable:
    /// embedding needs a value for *every* pair, but this one's exact scan
    /// was pruned (non-metric or boundless matrix) or its δ* bound was
    /// skipped by triangle pruning. Silently substituting NaN would feed
    /// garbage into MDS, so the missing cell is reported by name instead —
    /// recompute at threshold `0.0` (triangle off) to embed.
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
            MatrixError::IncrementalNeedsThreshold => write!(
                f,
                "incremental matrix maintenance requires threshold screening, not --top"
            ),
            MatrixError::BaseMismatch(msg) => write!(f, "base matrix mismatch: {msg}"),
            MatrixError::MissingCell { i, j } => write!(
                f,
                "no distance available for pair ({i}, {j}): the cell was pruned or \
                 skipped by screening; recompute with threshold 0.0 to embed"
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
    /// Difference function for the exact scans (the bound, where the
    /// family defines one, is always the `f_a` bound of Definition 4.1).
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
    /// certify. Families without a bound scan every pair.
    pub threshold: f64,
    /// `--top K` screening: when `Some(k)`, the `k` screenable pairs with
    /// the *largest* bounds get exact scans (ties broken by pair index)
    /// and the rest are pruned — `threshold` is not consulted for the cut
    /// (it is still validated). Pairs whose bound does not dominate are
    /// scanned as always.
    pub top: Option<usize>,
    /// Triangle-inequality pruning for *incremental extension* (off by
    /// default). Where δ* is a pseudo-metric
    /// ([`ModelFamily::BOUND_IS_METRIC`]), the stored bounds `δ*(i, j)`
    /// and the already-evaluated `δ*(j, new)` sandwich a new pair's bound:
    /// `max_j |δ*(i,j) − δ*(j,new)| ≤ δ*(i,new) ≤ min_j (δ*(i,j) +
    /// δ*(j,new))`. When the upper envelope falls at or below the
    /// threshold the pair is pruned, and when the lower envelope exceeds
    /// it the pair is scanned — either way *without evaluating δ*(i,new)*,
    /// whose grid cell stays NaN. Each decision matches what evaluating
    /// the bound would have decided (the envelopes bracket it), so the
    /// survivor set — and every surviving exact cell, bit-for-bit — is the
    /// same as plain screening, up to floating-point rounding of the
    /// envelope sums for bounds within ~1 ulp of the threshold. Ignored
    /// for full-matrix computation (each bound is evaluated once and used
    /// once there, so skipping cannot win), for non-metric or boundless
    /// families, and in `--top` mode.
    pub triangle: bool,
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
            triangle: false,
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
    /// Row-major symmetric δ* bounds (zero diagonal); `None` when the
    /// family defines no model-only bound. NaN marks a cell whose bound
    /// evaluation was skipped by triangle pruning.
    bounds: Option<Vec<f64>>,
    /// Row-major exact deviations; NaN where the scan was pruned (see
    /// [`DeviationMatrix::exact`] for the `Option` view).
    exact: Vec<f64>,
    threshold: f64,
    diff: DiffFn,
    agg: AggFn,
    scanned: usize,
    /// Whether the family's δ* is a pseudo-metric — gates embedding over
    /// the bound grid and triangle pruning.
    metric: bool,
    /// Bound evaluations skipped by triangle pruning across the matrix's
    /// incremental history.
    bound_skips: usize,
}

/// Whether two difference functions are provably the same measure.
/// `Custom` pairs answer `false` even for the same function pointer —
/// pointer identity is not a reliable equality witness, and the only
/// consumer (incremental maintenance) must refuse rather than guess.
pub(crate) fn same_diff(a: DiffFn, b: DiffFn) -> bool {
    match (a, b) {
        (DiffFn::Absolute, DiffFn::Absolute) | (DiffFn::Scaled, DiffFn::Scaled) => true,
        (DiffFn::ChiSquared { c: ca }, DiffFn::ChiSquared { c: cb }) => {
            ca.to_bits() == cb.to_bits()
        }
        _ => false,
    }
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
/// fanned out over `par`. Model-only — no dataset scans. `None` when the
/// family defines no bound (nothing to screen on).
pub(crate) fn pair_bounds<F: ModelFamily>(
    models: &[F::Model],
    agg: AggFn,
    par: Parallelism,
) -> Option<Vec<f64>> {
    if !F::HAS_BOUND {
        return None;
    }
    let pair_list = pairs(models.len());
    Some(map_indices(par, pair_list.len(), |p| {
        let (i, j) = pair_list[p];
        F::upper_bound(&models[i], &models[j], agg).expect("HAS_BOUND families always bound")
    }))
}

/// The pair indices (into [`pairs`] order) whose exact scan survives
/// screening under `params`. A pair can be pruned only when its bound is
/// certified to dominate ([`ModelFamily::bound_dominates`]); among those,
/// either the threshold cut or the top-K cut applies. With no bounds at
/// all, every pair survives.
fn surviving_pairs<F: ModelFamily>(
    models: &[F::Model],
    bounds: Option<&[f64]>,
    params: &MatrixParams,
) -> Vec<usize> {
    let pair_list = pairs(models.len());
    let Some(bounds) = bounds else {
        return (0..pair_list.len()).collect();
    };
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

/// Which collection members participate in at least one pair that
/// survives screening — i.e. whose *datasets* phase 2 will scan. Lets
/// callers that load datasets lazily (the registry) skip the IO for
/// members whose every pair was pruned. `bounds` must come from
/// [`pair_bounds`] over the same collection.
pub(crate) fn screened_members<F: ModelFamily>(
    models: &[F::Model],
    bounds: Option<&[f64]>,
    params: &MatrixParams,
) -> Vec<bool> {
    let pair_list = pairs(models.len());
    let mut needed = vec![false; models.len()];
    for p in surviving_pairs::<F>(models, bounds, params) {
        let (i, j) = pair_list[p];
        needed[i] = true;
        needed[j] = true;
    }
    needed
}

/// Computes the screened pairwise deviation matrix of a collection of any
/// model family.
///
/// `models[k]` and `datasets[k]` must describe the same snapshot `k`
/// (named `names[k]`). Datasets whose every pair is pruned are never
/// touched — callers may pass empty stand-ins for them (see
/// [`Registry::matrix_of`](crate::Registry::matrix_of)).
///
/// Bit-identical for every worker-thread count: pair enumeration, chunk
/// decomposition, and merge order are all pure functions of the input
/// sizes, and the per-pair scans are themselves thread-count-invariant.
pub fn deviation_matrix<F: ModelFamily>(
    models: &[F::Model],
    datasets: &[F::Dataset],
    names: Vec<String>,
    params: &MatrixParams,
) -> Result<DeviationMatrix, MatrixError> {
    params.validate()?;
    // Phase 1: model-only bounds for every pair. One pair is one work
    // item; the bound needs no dataset scan, so this phase is cheap even
    // for large collections.
    let bounds = pair_bounds::<F>(models, params.agg, params.par);
    Ok(deviation_matrix_with_bounds::<F>(
        models, datasets, names, params, bounds,
    ))
}

/// [`deviation_matrix`] with the phase-1 bounds already in hand (in
/// [`pairs`] order) — lets the registry reuse the bounds it computed to
/// decide which datasets to load instead of paying the sweep twice.
/// `params` must already be validated.
pub(crate) fn deviation_matrix_with_bounds<F: ModelFamily>(
    models: &[F::Model],
    datasets: &[F::Dataset],
    names: Vec<String>,
    params: &MatrixParams,
    pair_bounds: Option<Vec<f64>>,
) -> DeviationMatrix {
    let n = models.len();
    assert_eq!(n, datasets.len(), "one dataset per model");
    assert_eq!(n, names.len(), "one name per model");
    let pair_list = pairs(n);
    if let Some(b) = &pair_bounds {
        assert_eq!(pair_list.len(), b.len(), "one bound per pair");
    }

    // Screening: where the bound dominates the chosen deviation
    // (Theorem 4.2 (1) for lits), falling below the cut certifies the
    // pair as uninteresting; everywhere else the certificate is void and
    // the pair survives.
    let survivors = surviving_pairs::<F>(models, pair_bounds.as_deref(), params);

    // Phase 2: exact scans for the surviving pairs only. Each pair is one
    // work item; nested scan parallelism inside a worker runs inline per
    // the focus-exec nesting guard. One access handle per snapshot is
    // shared across every pair that scans it, so per-snapshot structures
    // (the lits vertical index) are built at most once per run instead of
    // once per pair; handles for snapshots whose every pair was pruned
    // stay untouched (construction is free — no scan, no index build).
    let sources: Vec<F::Source<'_>> = datasets.iter().map(|d| F::source(d)).collect();
    let sources = &sources;
    let exact_vals = map_indices(params.par, survivors.len(), |s| {
        let (i, j) = pair_list[survivors[s]];
        deviate_over_sources::<F>(
            F::gcr(&models[i], &models[j]),
            &models[i],
            &sources[i],
            &models[j],
            &sources[j],
            params.diff,
            params.agg,
            params.par,
        )
        .value
    });

    let bounds = pair_bounds.map(|pb| {
        let mut bounds = vec![0.0; n * n];
        for (p, &(i, j)) in pair_list.iter().enumerate() {
            bounds[i * n + j] = pb[p];
            bounds[j * n + i] = pb[p];
        }
        bounds
    });
    let mut exact = vec![f64::NAN; n * n];
    for (s, &p) in survivors.iter().enumerate() {
        let (i, j) = pair_list[p];
        exact[i * n + j] = exact_vals[s];
        exact[j * n + i] = exact_vals[s];
    }
    DeviationMatrix {
        names,
        n,
        bounds,
        exact,
        threshold: params.threshold,
        diff: params.diff,
        agg: params.agg,
        scanned: survivors.len(),
        metric: F::HAS_BOUND && F::BOUND_IS_METRIC,
        bound_skips: 0,
    }
}

/// The screening plan for the `N − 1` new pairs `(i, last)` when one
/// member is appended to a collection: which bounds were evaluated (NaN =
/// skipped by triangle pruning), which pairs need exact scans, and how
/// many bound evaluations triangle pruning saved.
pub(crate) struct NewPairPlan {
    /// `δ*(i, last)` per old member, in member order; NaN where triangle
    /// pruning decided the pair without evaluating it. `None` for
    /// boundless families.
    pub bounds: Option<Vec<f64>>,
    /// Old-member indices whose pair with the new member needs an exact
    /// scan.
    pub survivors: Vec<usize>,
    /// Bound evaluations skipped by triangle pruning.
    pub skipped: usize,
}

/// Screens the `N − 1` new pairs of an incremental extension. The single
/// place the incremental survivor predicate lives: both [`extend_matrix`]
/// (which scans the survivors) and the registry's dataset-loading decision
/// consume the plan, so the two can never drift apart.
///
/// With [`MatrixParams::triangle`] set — and a metric bound and a base
/// matrix that carries bounds — the new pairs are decided *sequentially in
/// member order*: every pair whose bound was already evaluated serves as
/// an anchor `j`, and a later pair `(i, last)` is pruned when
/// `min_j (δ*(i,j) + δ*(j,last)) ≤ threshold` or scanned when
/// `max_j |δ*(i,j) − δ*(j,last)| > threshold`, skipping its bound
/// evaluation entirely. Undominated pairs always evaluate their bound
/// (it anchors later decisions) and always scan. The sequential loop is a
/// pure function of the inputs — thread count cannot change the outcome.
pub(crate) fn plan_new_pairs<F: ModelFamily>(
    base: &DeviationMatrix,
    models: &[F::Model],
    params: &MatrixParams,
) -> NewPairPlan {
    let last = models.len() - 1;
    debug_assert_eq!(base.len(), last);
    debug_assert_eq!(params.top, None);
    if !F::HAS_BOUND {
        return NewPairPlan {
            bounds: None,
            survivors: (0..last).collect(),
            skipped: 0,
        };
    }
    let dominated: Vec<bool> = (0..last)
        .map(|i| F::bound_dominates(params.diff, &models[i], &models[last]))
        .collect();
    if params.triangle && F::BOUND_IS_METRIC && base.has_bounds() {
        let mut bounds = vec![f64::NAN; last];
        let mut survivors = Vec::new();
        let mut anchors: Vec<usize> = Vec::new();
        let mut skipped = 0usize;
        for i in 0..last {
            if dominated[i] {
                // Envelope the unseen δ*(i, last) from the anchors.
                let mut upper = f64::INFINITY;
                let mut lower = 0.0f64;
                for &j in &anchors {
                    let base_ij = base.bound(i, j);
                    if base_ij.is_nan() {
                        continue; // triangle hole in the base grid
                    }
                    upper = upper.min(base_ij + bounds[j]);
                    lower = lower.max((base_ij - bounds[j]).abs());
                }
                if upper <= params.threshold {
                    skipped += 1; // certified prunable — no eval, no scan
                    continue;
                }
                if lower > params.threshold {
                    skipped += 1; // certified interesting — scan, no eval
                    survivors.push(i);
                    continue;
                }
            }
            let b = F::upper_bound(&models[i], &models[last], params.agg)
                .expect("HAS_BOUND families always bound");
            bounds[i] = b;
            anchors.push(i);
            if !dominated[i] || b > params.threshold {
                survivors.push(i);
            }
        }
        return NewPairPlan {
            bounds: Some(bounds),
            survivors,
            skipped,
        };
    }
    let bounds = map_indices(params.par, last, |i| {
        F::upper_bound(&models[i], &models[last], params.agg)
            .expect("HAS_BOUND families always bound")
    });
    let survivors = (0..last)
        .filter(|&i| !dominated[i] || bounds[i] > params.threshold)
        .collect();
    NewPairPlan {
        bounds: Some(bounds),
        survivors,
        skipped: 0,
    }
}

/// Extends a base matrix over `models[..n-1]` with one new member — the
/// incremental-maintenance core. Only the `n − 1` new pairs `(i, n−1)` are
/// bounded, screened and (where surviving) scanned, per the `plan` from
/// [`plan_new_pairs`]; every old cell is copied bit-for-bit, so every
/// surviving cell is identical to recomputing the full matrix from
/// scratch. `params` must be validated, threshold-mode only.
pub(crate) fn extend_matrix<F: ModelFamily>(
    base: &DeviationMatrix,
    models: &[F::Model],
    datasets: &[F::Dataset],
    names: Vec<String>,
    params: &MatrixParams,
    plan: NewPairPlan,
) -> DeviationMatrix {
    let n = models.len();
    debug_assert_eq!(base.len() + 1, n);
    debug_assert_eq!(params.top, None);
    let last = n - 1;

    let survivors = &plan.survivors;
    // As in the full computation: one shared handle per snapshot, so the
    // new member's expensive structures are built once across all of its
    // surviving pairs.
    let sources: Vec<F::Source<'_>> = datasets.iter().map(|d| F::source(d)).collect();
    let sources = &sources;
    let exact_vals = map_indices(params.par, survivors.len(), |s| {
        let i = survivors[s];
        deviate_over_sources::<F>(
            F::gcr(&models[i], &models[last]),
            &models[i],
            &sources[i],
            &models[last],
            &sources[last],
            params.diff,
            params.agg,
            params.par,
        )
        .value
    });

    // Reassemble: old cells verbatim, new row/column from the fresh pairs.
    let old = base.len();
    let copy_block = |src: &[f64], fill: f64| {
        let mut dst = vec![fill; n * n];
        for i in 0..old {
            for j in 0..old {
                dst[i * n + j] = src[i * old + j];
            }
        }
        dst
    };
    let bounds = match (&base.bounds, &plan.bounds) {
        (Some(ob), Some(nb)) => {
            let mut bounds = copy_block(ob, 0.0);
            for (i, &b) in nb.iter().enumerate() {
                bounds[i * n + last] = b;
                bounds[last * n + i] = b;
            }
            Some(bounds)
        }
        (None, None) => None,
        _ => unreachable!("bound presence is a family constant"),
    };
    let mut exact = copy_block(&base.exact, f64::NAN);
    for (s, &i) in survivors.iter().enumerate() {
        exact[i * n + last] = exact_vals[s];
        exact[last * n + i] = exact_vals[s];
    }
    DeviationMatrix {
        names,
        n,
        bounds,
        exact,
        threshold: params.threshold,
        diff: params.diff,
        agg: params.agg,
        scanned: base.scanned + survivors.len(),
        metric: base.metric,
        bound_skips: base.bound_skips + plan.skipped,
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

    /// The aggregate function the bounds and exact scans used.
    pub fn agg(&self) -> AggFn {
        self.agg
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

    /// True when the matrix carries model-only δ* bounds (the family
    /// defines one — every built-in family today). Boundless matrices are
    /// always complete: every pair was scanned.
    pub fn has_bounds(&self) -> bool {
        self.bounds.is_some()
    }

    /// True when the family's δ* is a pseudo-metric (lits, dt): the bound
    /// grid is a valid distance matrix for embedding and incremental
    /// extension may use triangle pruning. False for cluster matrices —
    /// their bound violates `δ*(M, M) = 0` when clusters overlap.
    pub fn metric(&self) -> bool {
        self.metric
    }

    /// Bound evaluations skipped by triangle pruning over the matrix's
    /// incremental history (`0` unless [`MatrixParams::triangle`] extended
    /// it).
    pub fn bound_skips(&self) -> usize {
        self.bound_skips
    }

    /// The δ* upper bound for a pair (`0` on the diagonal); NaN when the
    /// family defines no bound (see [`DeviationMatrix::has_bounds`]) or
    /// when triangle pruning decided the pair without evaluating it.
    pub fn bound(&self, i: usize, j: usize) -> f64 {
        match &self.bounds {
            Some(b) => b[i * self.n + j],
            None => f64::NAN,
        }
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
    /// deviations (cluster's non-metric bound must never feed MDS;
    /// boundless matrices have exact values in full).
    ///
    /// Errors with [`MatrixError::MissingCell`] when a required cell is
    /// unavailable — a triangle-skipped bound on the metric path, or a
    /// pruned exact scan on the exact path — instead of silently feeding
    /// NaN into the embedding.
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
    fn screened_members_marks_only_surviving_pairs() {
        let (models, _, _) = collection(&[(1, 0.0), (2, 0.0), (3, 1.0)]);
        let bounds = pair_bounds::<LitsFamily>(&models, AggFn::Sum, Parallelism::Sequential);
        assert!(bounds.is_some());
        let all =
            screened_members::<LitsFamily>(&models, bounds.as_deref(), &MatrixParams::default());
        assert_eq!(all, vec![true, true, true]);
        let none = screened_members::<LitsFamily>(
            &models,
            bounds.as_deref(),
            &MatrixParams {
                threshold: f64::INFINITY,
                ..MatrixParams::default()
            },
        );
        assert_eq!(none, vec![false, false, false]);
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

    #[test]
    fn triangle_extension_matches_plain_screening() {
        // Two tight lits groups; base over the first five snapshots, then
        // append a sixth and plan the new pairs with and without triangle
        // pruning: identical survivors and bounds where evaluated, with a
        // strictly positive number of bound evaluations skipped.
        let (models, datasets, names) = collection(&[
            (1, 0.0),
            (2, 0.05),
            (3, 1.0),
            (4, 0.95),
            (5, 0.0),
            (6, 0.02),
        ]);
        let probe = lits_matrix(&models, &datasets, names.clone(), f64::INFINITY).unwrap();
        let probe = &probe;
        let mut bs: Vec<f64> = (0..6)
            .flat_map(|i| ((i + 1)..6).map(move |j| probe.bound(i, j)))
            .collect();
        bs.sort_by(f64::total_cmp);
        let params = MatrixParams {
            threshold: (bs[bs.len() / 2 - 1] + bs[bs.len() / 2]) / 2.0,
            par: Parallelism::Sequential,
            ..MatrixParams::default()
        };
        let base = deviation_matrix::<LitsFamily>(
            &models[..5],
            &datasets[..5],
            names[..5].to_vec(),
            &params,
        )
        .unwrap();

        let plain = plan_new_pairs::<LitsFamily>(&base, &models, &params);
        let tri = plan_new_pairs::<LitsFamily>(
            &base,
            &models,
            &MatrixParams {
                triangle: true,
                ..params
            },
        );
        assert_eq!(plain.survivors, tri.survivors, "survivor sets must agree");
        assert_eq!(plain.skipped, 0);
        assert!(tri.skipped > 0, "triangle pruning must skip some bounds");
        // Where the triangle plan did evaluate, it got the same bound.
        let (pb, tb) = (plain.bounds.unwrap(), tri.bounds.unwrap());
        let mut skipped_seen = 0;
        for i in 0..5 {
            if tb[i].is_nan() {
                skipped_seen += 1;
            } else {
                assert_eq!(pb[i].to_bits(), tb[i].to_bits(), "bound {i}");
            }
        }
        assert_eq!(skipped_seen, tri.skipped);
    }
}
