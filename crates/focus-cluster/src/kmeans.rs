//! Lloyd's k-means with k-means++ seeding, over the numeric attributes of a
//! table, exporting FOCUS cluster-models.

use focus_core::data::{AttrType, Table, Value};
use focus_core::model::ClusterModel;
use focus_core::region::{AttrConstraint, BoxRegion};
use focus_exec::{map_chunks_flat, map_reduce, Parallelism};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Minimum points per worker chunk for the Lloyd scans; also the fixed
/// chunk size of the centroid/inertia float folds (see [`map_reduce`]).
const LLOYD_GRAIN: usize = focus_exec::DEFAULT_GRAIN;

/// Parameters for the k-means clusterer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KMeansParams {
    /// Number of clusters `k`.
    pub k: usize,
    /// Maximum Lloyd iterations.
    pub max_iters: usize,
    /// RNG seed (k-means++ seeding is randomized).
    pub seed: u64,
}

impl KMeansParams {
    /// Parameters with `k` clusters, 100 iterations, seed 0.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        Self {
            k,
            max_iters: 100,
            seed: 0,
        }
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the iteration cap. `0` is well-defined: the fit returns the
    /// k-means++ seeding with each point assigned to its nearest seed and
    /// no Lloyd update applied.
    pub fn max_iters(mut self, n: usize) -> Self {
        self.max_iters = n;
        self
    }
}

/// The k-means clusterer.
#[derive(Debug, Clone)]
pub struct KMeans {
    params: KMeansParams,
}

/// Result of a k-means fit.
#[derive(Debug, Clone, PartialEq)]
pub struct KMeansResult {
    /// Cluster centroids (`k × d`, only numeric attributes).
    pub centroids: Vec<Vec<f64>>,
    /// Cluster assignment per input row.
    pub assignment: Vec<usize>,
    /// Indices of the numeric attributes used.
    pub numeric_attrs: Vec<usize>,
    /// Sum of squared distances to assigned centroids (inertia).
    pub inertia: f64,
    /// Number of Lloyd iterations executed.
    pub iterations: usize,
}

impl KMeans {
    /// Creates a clusterer with the given parameters.
    pub fn new(params: KMeansParams) -> Self {
        Self { params }
    }

    /// Fits k-means to the numeric attributes of `data`, with the Lloyd
    /// iterations run on `par` worker threads.
    ///
    /// Each iteration parallelizes two scans, both **bit-identical** for
    /// every thread count: the assignment step maps points to their nearest
    /// centroid (per-point results, concatenated in chunk order — exact),
    /// and the update step accumulates per-cluster coordinate sums with
    /// [`map_reduce`], whose chunk decomposition is fixed by the point
    /// count alone, so the floating-point fold order never depends on the
    /// thread count. k-means++ seeding stays sequential (one RNG stream);
    /// it is `O(k·n)` against the scans' `O(iters·k·n)`.
    ///
    /// An empty table yields a well-defined empty model (no centroids, no
    /// assignments, zero inertia) rather than panicking, and
    /// `max_iters == 0` returns the seeding with nearest-seed assignments.
    pub fn fit(&self, data: &Table, par: Parallelism) -> KMeansResult {
        let numeric_attrs: Vec<usize> = (0..data.schema().len())
            .filter(|&i| matches!(data.schema().attr(i).ty, AttrType::Numeric))
            .collect();
        assert!(
            !numeric_attrs.is_empty(),
            "k-means requires at least one numeric attribute"
        );
        let n = data.len();
        if n == 0 {
            return KMeansResult {
                centroids: Vec::new(),
                assignment: Vec::new(),
                numeric_attrs,
                inertia: 0.0,
                iterations: 0,
            };
        }
        let k = self.params.k.min(n);
        let d = numeric_attrs.len();
        let points: Vec<Vec<f64>> = (0..n)
            .map(|r| {
                numeric_attrs
                    .iter()
                    .map(|&a| data.row(r)[a].as_num())
                    .collect()
            })
            .collect();

        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut centroids = plus_plus_seed(&points, k, &mut rng);
        let mut assignment = assign(&points, &centroids, par);
        let mut iterations = 0;
        for it in 0..self.params.max_iters {
            iterations = it + 1;
            if it > 0 {
                // Re-assignment step.
                let next = assign(&points, &centroids, par);
                let changed = next != assignment;
                assignment = next;
                if !changed {
                    break;
                }
            }
            // Update step: per-cluster coordinate sums, folded in fixed
            // chunk order so the totals are thread-count-invariant.
            let assignment_ref = &assignment;
            let points_ref = &points;
            let (sums, counts) = map_reduce(
                par,
                n,
                LLOYD_GRAIN,
                |range| {
                    let mut sums = vec![vec![0.0f64; d]; k];
                    let mut counts = vec![0u64; k];
                    for i in range {
                        let c = assignment_ref[i];
                        counts[c] += 1;
                        for (s, &x) in sums[c].iter_mut().zip(&points_ref[i]) {
                            *s += x;
                        }
                    }
                    (sums, counts)
                },
                |(mut sa, mut ca), (sb, cb)| {
                    for (c, (sum_b, count_b)) in sb.into_iter().zip(cb).enumerate() {
                        ca[c] += count_b;
                        for (a, b) in sa[c].iter_mut().zip(sum_b) {
                            *a += b;
                        }
                    }
                    (sa, ca)
                },
            )
            .expect("n > 0");
            for c in 0..k {
                if counts[c] > 0 {
                    centroids[c] = sums[c].iter().map(|&s| s / counts[c] as f64).collect();
                }
                // Empty clusters keep their old centroid.
            }
        }
        let centroids_ref = &centroids;
        let assignment_ref = &assignment;
        let points_ref = &points;
        let inertia = map_reduce(
            par,
            n,
            LLOYD_GRAIN,
            |range| {
                range
                    .map(|i| dist2(&points_ref[i], &centroids_ref[assignment_ref[i]]))
                    .sum::<f64>()
            },
            |a, b| a + b,
        )
        .unwrap_or(0.0);
        KMeansResult {
            centroids,
            assignment,
            numeric_attrs,
            inertia,
            iterations,
        }
    }
}

/// The Lloyd assignment step: nearest centroid per point, with the point
/// range fanned out over `par` worker threads. Per-point results are
/// independent and concatenate in chunk order — exact for any chunking.
fn assign(points: &[Vec<f64>], centroids: &[Vec<f64>], par: Parallelism) -> Vec<usize> {
    map_chunks_flat(par, points.len(), LLOYD_GRAIN, |range| {
        range
            .map(|i| nearest(&points[i], centroids).0)
            .collect::<Vec<usize>>()
    })
}

impl KMeansResult {
    /// Exports the clustering as a FOCUS [`ClusterModel`]: each cluster
    /// becomes its axis-aligned bounding box over the numeric attributes
    /// (half-open on the upper side, nudged so the extreme point is inside),
    /// measured by the fraction of rows assigned to it.
    pub fn to_model(&self, data: &Table) -> ClusterModel {
        let k = self.centroids.len();
        let d = self.numeric_attrs.len();
        let mut lo = vec![vec![f64::INFINITY; d]; k];
        let mut hi = vec![vec![f64::NEG_INFINITY; d]; k];
        let mut counts = vec![0u64; k];
        for (r, &c) in self.assignment.iter().enumerate() {
            counts[c] += 1;
            for (j, &a) in self.numeric_attrs.iter().enumerate() {
                let x = data.row(r)[a].as_num();
                lo[c][j] = lo[c][j].min(x);
                hi[c][j] = hi[c][j].max(x);
            }
        }
        let mut clusters = Vec::new();
        let mut measures = Vec::new();
        let n = data.len().max(1) as f64;
        for c in 0..k {
            if counts[c] == 0 {
                continue; // an empty cluster has no region
            }
            let mut region = BoxRegion::full(data.schema());
            for (j, &a) in self.numeric_attrs.iter().enumerate() {
                // Half-open interval: nudge the upper bound so the maximal
                // point is included.
                let span = (hi[c][j] - lo[c][j]).abs().max(1.0);
                region.constraints[a] = AttrConstraint::Interval {
                    lo: lo[c][j],
                    hi: hi[c][j] + span * 1e-9 + f64::MIN_POSITIVE,
                };
            }
            clusters.push(region);
            measures.push(counts[c] as f64 / n);
        }
        ClusterModel::new(clusters, measures, data.len() as u64)
    }

    /// Predicts the nearest cluster for a row of the original schema.
    pub fn predict(&self, row: &[Value]) -> usize {
        let p: Vec<f64> = self
            .numeric_attrs
            .iter()
            .map(|&a| row[a].as_num())
            .collect();
        nearest(&p, &self.centroids).0
    }
}

fn dist2(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn nearest(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (c, cent) in centroids.iter().enumerate() {
        let d = dist2(p, cent);
        if d < best.1 {
            best = (c, d);
        }
    }
    best
}

/// k-means++ seeding: first centroid uniform, subsequent ones proportional
/// to squared distance from the nearest chosen centroid.
fn plus_plus_seed<R: Rng + ?Sized>(points: &[Vec<f64>], k: usize, rng: &mut R) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(points[rng.gen_range(0..points.len())].clone());
    let mut d2: Vec<f64> = points.iter().map(|p| dist2(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let next = if total <= 0.0 {
            // All points coincide with existing centroids: pick uniformly.
            points[rng.gen_range(0..points.len())].clone()
        } else {
            let mut target = rng.gen::<f64>() * total;
            let mut chosen = points.len() - 1;
            for (i, &w) in d2.iter().enumerate() {
                if target < w {
                    chosen = i;
                    break;
                }
                target -= w;
            }
            points[chosen].clone()
        };
        for (i, p) in points.iter().enumerate() {
            d2[i] = d2[i].min(dist2(p, &next));
        }
        centroids.push(next);
    }
    centroids
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::data::Schema;
    use std::sync::Arc;

    fn two_blob_table(n_per: usize, gap: f64) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::numeric("y"),
        ]));
        let mut t = Table::new(schema);
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..n_per {
            t.push_row(&[Value::Num(rng.gen::<f64>()), Value::Num(rng.gen::<f64>())]);
        }
        for _ in 0..n_per {
            t.push_row(&[
                Value::Num(gap + rng.gen::<f64>()),
                Value::Num(gap + rng.gen::<f64>()),
            ]);
        }
        t
    }

    #[test]
    fn separates_two_blobs() {
        let data = two_blob_table(100, 50.0);
        let r = KMeans::new(KMeansParams::new(2).seed(1)).fit(&data, Parallelism::Global);
        // Rows 0..100 are one cluster, 100..200 the other.
        let first = r.assignment[0];
        assert!(r.assignment[..100].iter().all(|&a| a == first));
        assert!(r.assignment[100..].iter().all(|&a| a != first));
        assert!(r.inertia < 100.0, "inertia = {}", r.inertia);
    }

    #[test]
    fn model_boxes_cover_their_points() {
        let data = two_blob_table(80, 30.0);
        let r = KMeans::new(KMeansParams::new(2).seed(3)).fit(&data, Parallelism::Global);
        let model = r.to_model(&data);
        assert_eq!(model.clusters().len(), 2);
        // Every row is inside the box of its assigned cluster.
        for (row_idx, &c) in r.assignment.iter().enumerate() {
            // Boxes come out in cluster order; map cluster id to box index
            // (no clusters are empty here).
            assert!(
                model.clusters()[c].contains(data.row(row_idx)),
                "row {row_idx} outside its cluster box"
            );
        }
        // Measures sum to 1 (boxes are exhaustive over assigned points).
        let total: f64 = model.measures().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn k_equals_one_is_global_bounding_box() {
        let data = two_blob_table(50, 10.0);
        let r = KMeans::new(KMeansParams::new(1)).fit(&data, Parallelism::Global);
        assert!(r.assignment.iter().all(|&a| a == 0));
        let model = r.to_model(&data);
        assert_eq!(model.clusters().len(), 1);
        assert_eq!(model.measures()[0], 1.0);
    }

    #[test]
    fn k_larger_than_n_clamps() {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut data = Table::new(schema);
        data.push_row(&[Value::Num(1.0)]);
        data.push_row(&[Value::Num(2.0)]);
        let r = KMeans::new(KMeansParams::new(10)).fit(&data, Parallelism::Global);
        assert_eq!(r.centroids.len(), 2);
    }

    #[test]
    fn deterministic_per_seed() {
        let data = two_blob_table(60, 20.0);
        let a = KMeans::new(KMeansParams::new(3).seed(9)).fit(&data, Parallelism::Global);
        let b = KMeans::new(KMeansParams::new(3).seed(9)).fit(&data, Parallelism::Global);
        assert_eq!(a, b);
    }

    #[test]
    fn predict_routes_to_nearest() {
        let data = two_blob_table(50, 100.0);
        let r = KMeans::new(KMeansParams::new(2).seed(5)).fit(&data, Parallelism::Global);
        let lo = r.predict(&[Value::Num(0.5), Value::Num(0.5)]);
        let hi = r.predict(&[Value::Num(100.5), Value::Num(100.5)]);
        assert_ne!(lo, hi);
    }

    #[test]
    fn ignores_categorical_attributes() {
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::categorical("c", 3),
        ]));
        let mut data = Table::new(schema);
        for i in 0..30 {
            data.push_row(&[Value::Num(i as f64), Value::Cat((i % 3) as u32)]);
        }
        let r = KMeans::new(KMeansParams::new(2)).fit(&data, Parallelism::Global);
        assert_eq!(r.numeric_attrs, vec![0]);
        // The model's boxes leave the categorical attribute unconstrained.
        let model = r.to_model(&data);
        for b in model.clusters() {
            match &b.constraints[1] {
                focus_core::region::AttrConstraint::Cats(m) => {
                    assert_eq!(m.count(), 3);
                }
                _ => panic!("expected categorical constraint"),
            }
        }
    }

    #[test]
    fn empty_table_fit_is_well_defined() {
        // Regression: an empty table used to panic; it now yields an empty
        // model (no centroids, no assignments, zero inertia).
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let empty = Table::new(schema);
        let r = KMeans::new(KMeansParams::new(2)).fit(&empty, Parallelism::Global);
        assert!(r.centroids.is_empty());
        assert!(r.assignment.is_empty());
        assert_eq!(r.inertia, 0.0);
        assert_eq!(r.iterations, 0);
        let model = r.to_model(&empty);
        assert!(model.clusters().is_empty());
        assert_eq!(model.n_rows(), 0);
    }

    #[test]
    fn max_iters_zero_returns_seeding() {
        // Regression: `max_iters(0)` used to be silently clamped to 1; it
        // now returns the k-means++ seeds with nearest-seed assignments and
        // no Lloyd update.
        let data = two_blob_table(40, 25.0);
        let r =
            KMeans::new(KMeansParams::new(2).seed(3).max_iters(0)).fit(&data, Parallelism::Global);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.centroids.len(), 2);
        assert_eq!(r.assignment.len(), data.len());
        // Seeds are actual data points; every assignment is the nearest
        // seed, so each point is at least as close to its centroid as to
        // the other one.
        for (i, &c) in r.assignment.iter().enumerate() {
            let p: Vec<f64> = vec![data.row(i)[0].as_num(), data.row(i)[1].as_num()];
            let own = dist2(&p, &r.centroids[c]);
            let other = dist2(&p, &r.centroids[1 - c]);
            assert!(own <= other, "point {i} not assigned to nearest seed");
        }
        assert!(r.inertia.is_finite());
    }

    #[test]
    fn one_lloyd_iteration_runs_one_update() {
        let data = two_blob_table(40, 25.0);
        let zero =
            KMeans::new(KMeansParams::new(2).seed(3).max_iters(0)).fit(&data, Parallelism::Global);
        let one =
            KMeans::new(KMeansParams::new(2).seed(3).max_iters(1)).fit(&data, Parallelism::Global);
        assert_eq!(one.iterations, 1);
        // One update step can only tighten the fit.
        assert!(one.inertia <= zero.inertia + 1e-9);
    }
}
