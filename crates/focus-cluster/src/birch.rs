//! BIRCH: balanced iterative reducing and clustering using hierarchies
//! (Zhang, Ramakrishnan & Livny, SIGMOD 1996) — the clustering algorithm
//! the FOCUS paper cites (reference \[38\]) as its cluster-model substrate.
//!
//! This is the classical two-phase pipeline:
//!
//! 1. **CF-tree construction** — a single pass inserts every point into a
//!    height-balanced tree of *clustering features* `CF = (N, LS, SS)`
//!    (count, linear sum, square sum). A leaf entry absorbs a point when
//!    the resulting cluster radius stays below the threshold `T`; nodes
//!    split when they exceed the branching factor, exactly as in the paper.
//! 2. **Global clustering** — the leaf entries (micro-clusters) are merged
//!    agglomeratively by centroid distance until the requested number of
//!    clusters remains.
//!
//! The result exports to a [`focus_core::model::ClusterModel`] just like
//! k-means, so either substrate can drive FOCUS cluster deviations.

use focus_core::data::{AttrType, Table};
use focus_core::model::ClusterModel;
use focus_core::region::{AttrConstraint, BoxRegion};

/// A clustering feature: the sufficient statistics of a point set.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusteringFeature {
    /// Number of points.
    pub n: u64,
    /// Per-dimension linear sum `Σ xᵢ`.
    pub ls: Vec<f64>,
    /// Sum of squared norms `Σ ‖xᵢ‖²`.
    pub ss: f64,
}

impl ClusteringFeature {
    /// The CF of a single point.
    pub fn of_point(p: &[f64]) -> Self {
        Self {
            n: 1,
            ls: p.to_vec(),
            ss: p.iter().map(|x| x * x).sum(),
        }
    }

    /// An empty CF of dimension `d`.
    pub fn empty(d: usize) -> Self {
        Self {
            n: 0,
            ls: vec![0.0; d],
            ss: 0.0,
        }
    }

    /// CF additivity (the theorem that makes BIRCH work): merging two
    /// disjoint point sets adds their CFs componentwise.
    pub fn merge(&self, other: &ClusteringFeature) -> ClusteringFeature {
        ClusteringFeature {
            n: self.n + other.n,
            ls: self.ls.iter().zip(&other.ls).map(|(a, b)| a + b).collect(),
            ss: self.ss + other.ss,
        }
    }

    /// Adds one point in place.
    pub fn add_point(&mut self, p: &[f64]) {
        self.n += 1;
        for (s, &x) in self.ls.iter_mut().zip(p) {
            *s += x;
        }
        self.ss += p.iter().map(|x| x * x).sum::<f64>();
    }

    /// Centroid `LS / N`.
    pub fn centroid(&self) -> Vec<f64> {
        let n = self.n.max(1) as f64;
        self.ls.iter().map(|s| s / n).collect()
    }

    /// Cluster radius: RMS distance of the members to the centroid,
    /// `sqrt(SS/N − ‖LS/N‖²)` (clamped at 0 against rounding).
    pub fn radius(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        let c2: f64 = self.ls.iter().map(|s| (s / n) * (s / n)).sum();
        (self.ss / n - c2).max(0.0).sqrt()
    }

    /// Squared Euclidean distance between centroids.
    pub fn centroid_dist2(&self, other: &ClusteringFeature) -> f64 {
        let ca = self.centroid();
        let cb = other.centroid();
        ca.iter().zip(&cb).map(|(a, b)| (a - b) * (a - b)).sum()
    }
}

/// CF-tree node: either internal (child CFs + child nodes) or leaf (entry
/// CFs).
#[derive(Debug, Clone)]
enum Node {
    Internal {
        summaries: Vec<ClusteringFeature>,
        children: Vec<Node>,
    },
    Leaf {
        entries: Vec<ClusteringFeature>,
    },
}

/// Parameters of the BIRCH clusterer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BirchParams {
    /// Absorption threshold `T`: a leaf entry absorbs a point only while
    /// its radius stays ≤ `threshold`.
    pub threshold: f64,
    /// Branching factor `B`: maximum entries per node before a split.
    pub branching: usize,
    /// Number of clusters produced by the global (agglomerative) phase.
    pub n_clusters: usize,
}

impl BirchParams {
    /// Parameters with the given threshold, branching 8, `k` clusters.
    pub fn new(threshold: f64, n_clusters: usize) -> Self {
        assert!(threshold >= 0.0);
        assert!(n_clusters >= 1);
        Self {
            threshold,
            branching: 8,
            n_clusters,
        }
    }

    /// Sets the branching factor (≥ 2).
    pub fn branching(mut self, b: usize) -> Self {
        assert!(b >= 2);
        self.branching = b;
        self
    }
}

/// The BIRCH clusterer.
#[derive(Debug, Clone)]
pub struct Birch {
    params: BirchParams,
}

/// Result of a BIRCH fit: the global clusters' CFs and per-point
/// assignments.
#[derive(Debug, Clone)]
pub struct BirchResult {
    /// One clustering feature per final cluster.
    pub clusters: Vec<ClusteringFeature>,
    /// Cluster index per input row.
    pub assignment: Vec<usize>,
    /// Indices of the numeric attributes used.
    pub numeric_attrs: Vec<usize>,
    /// Number of leaf entries (micro-clusters) before the global phase.
    pub n_microclusters: usize,
}

impl Birch {
    /// Creates a clusterer.
    pub fn new(params: BirchParams) -> Self {
        Self { params }
    }

    /// Fits the CF-tree over the numeric attributes of `data`, then merges
    /// micro-clusters agglomeratively down to `n_clusters`.
    pub fn fit(&self, data: &Table) -> BirchResult {
        assert!(!data.is_empty(), "cannot cluster an empty table");
        let numeric_attrs: Vec<usize> = (0..data.schema().len())
            .filter(|&i| matches!(data.schema().attr(i).ty, AttrType::Numeric))
            .collect();
        assert!(!numeric_attrs.is_empty(), "BIRCH needs a numeric attribute");
        let d = numeric_attrs.len();
        let points: Vec<Vec<f64>> = (0..data.len())
            .map(|r| {
                numeric_attrs
                    .iter()
                    .map(|&a| data.row(r)[a].as_num())
                    .collect()
            })
            .collect();

        // Phase 1: build the CF-tree.
        let mut root = Node::Leaf {
            entries: Vec::new(),
        };
        for p in &points {
            if let Some((a, b)) = insert(
                &mut root,
                p,
                self.params.threshold,
                self.params.branching,
                d,
            ) {
                // Root split: grow the tree by one level.
                let sa = subtree_cf(&a, d);
                let sb = subtree_cf(&b, d);
                root = Node::Internal {
                    summaries: vec![sa, sb],
                    children: vec![a, b],
                };
            }
        }

        // Collect the leaf entries (micro-clusters).
        let mut micro: Vec<ClusteringFeature> = Vec::new();
        collect_leaves(&root, &mut micro);
        let n_microclusters = micro.len();

        // Phase 2: agglomerative merge by closest centroids.
        let k = self.params.n_clusters.min(micro.len()).max(1);
        while micro.len() > k {
            let mut best = (0usize, 1usize, f64::INFINITY);
            for i in 0..micro.len() {
                for j in (i + 1)..micro.len() {
                    let dist = micro[i].centroid_dist2(&micro[j]);
                    if dist < best.2 {
                        best = (i, j, dist);
                    }
                }
            }
            let merged = micro[best.0].merge(&micro[best.1]);
            micro.swap_remove(best.1);
            micro[best.0] = merged;
        }

        // Assign each point to the nearest final centroid.
        let centroids: Vec<Vec<f64>> = micro.iter().map(|c| c.centroid()).collect();
        let assignment: Vec<usize> = points
            .iter()
            .map(|p| {
                let mut bi = 0;
                let mut bd = f64::INFINITY;
                for (i, c) in centroids.iter().enumerate() {
                    let dist: f64 = p.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum();
                    if dist < bd {
                        bd = dist;
                        bi = i;
                    }
                }
                bi
            })
            .collect();

        BirchResult {
            clusters: micro,
            assignment,
            numeric_attrs,
            n_microclusters,
        }
    }
}

impl BirchResult {
    /// Exports a FOCUS [`ClusterModel`]: the bounding box of each cluster's
    /// assigned points with its selectivity — identical contract to
    /// [`crate::kmeans::KMeansResult::to_model`].
    pub fn to_model(&self, data: &Table) -> ClusterModel {
        let k = self.clusters.len();
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
                continue;
            }
            let mut region = BoxRegion::full(data.schema());
            for (j, &a) in self.numeric_attrs.iter().enumerate() {
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
}

/// Inserts a point into a subtree. Returns `Some((left, right))` when the
/// node had to split, handing both halves up to the parent.
fn insert(
    node: &mut Node,
    p: &[f64],
    threshold: f64,
    branching: usize,
    d: usize,
) -> Option<(Node, Node)> {
    match node {
        Node::Leaf { entries } => {
            // Closest entry that can absorb the point within the threshold.
            let point_cf = ClusteringFeature::of_point(p);
            let mut best: Option<(usize, f64)> = None;
            for (i, e) in entries.iter().enumerate() {
                let dist = e.centroid_dist2(&point_cf);
                if best.is_none_or(|(_, bd)| dist < bd) {
                    best = Some((i, dist));
                }
            }
            if let Some((i, _)) = best {
                let merged = entries[i].merge(&point_cf);
                if merged.radius() <= threshold {
                    entries[i] = merged;
                    return None;
                }
            }
            entries.push(point_cf);
            if entries.len() > branching {
                let (a, b) = split_entries(std::mem::take(entries));
                return Some((Node::Leaf { entries: a }, Node::Leaf { entries: b }));
            }
            None
        }
        Node::Internal {
            summaries,
            children,
        } => {
            // Descend into the child with the nearest summary centroid.
            let point_cf = ClusteringFeature::of_point(p);
            let mut bi = 0;
            let mut bd = f64::INFINITY;
            for (i, s) in summaries.iter().enumerate() {
                let dist = s.centroid_dist2(&point_cf);
                if dist < bd {
                    bd = dist;
                    bi = i;
                }
            }
            let split = insert(&mut children[bi], p, threshold, branching, d);
            match split {
                None => {
                    summaries[bi] = summaries[bi].merge(&point_cf);
                    None
                }
                Some((a, b)) => {
                    // Replace the split child with its two halves.
                    let sa = subtree_cf(&a, d);
                    let sb = subtree_cf(&b, d);
                    children[bi] = a;
                    summaries[bi] = sa;
                    children.insert(bi + 1, b);
                    summaries.insert(bi + 1, sb);
                    if children.len() > branching {
                        let pairs: Vec<(ClusteringFeature, Node)> =
                            summaries.drain(..).zip(children.drain(..)).collect();
                        let (pa, pb) = split_pairs(pairs);
                        let (sa, ca): (Vec<_>, Vec<_>) = pa.into_iter().unzip();
                        let (sb, cb): (Vec<_>, Vec<_>) = pb.into_iter().unzip();
                        return Some((
                            Node::Internal {
                                summaries: sa,
                                children: ca,
                            },
                            Node::Internal {
                                summaries: sb,
                                children: cb,
                            },
                        ));
                    }
                    None
                }
            }
        }
    }
}

/// Splits leaf entries by the farthest-pair seeding rule of the BIRCH
/// paper: pick the two entries farthest apart as seeds, assign the rest to
/// the nearer seed.
fn split_entries(
    entries: Vec<ClusteringFeature>,
) -> (Vec<ClusteringFeature>, Vec<ClusteringFeature>) {
    let (ia, ib) = farthest_pair(&entries, |e| e.clone());
    let seed_a = entries[ia].clone();
    let seed_b = entries[ib].clone();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for e in entries {
        if e.centroid_dist2(&seed_a) <= e.centroid_dist2(&seed_b) {
            a.push(e);
        } else {
            b.push(e);
        }
    }
    if a.is_empty() {
        a.push(b.pop().expect("non-empty"));
    }
    if b.is_empty() {
        b.push(a.pop().expect("non-empty"));
    }
    (a, b)
}

type NodeEntry = (ClusteringFeature, Node);

fn split_pairs(pairs: Vec<NodeEntry>) -> (Vec<NodeEntry>, Vec<NodeEntry>) {
    let (ia, ib) = farthest_pair(&pairs, |(s, _)| s.clone());
    let seed_a = pairs[ia].0.clone();
    let seed_b = pairs[ib].0.clone();
    let mut a = Vec::new();
    let mut b = Vec::new();
    for p in pairs {
        if p.0.centroid_dist2(&seed_a) <= p.0.centroid_dist2(&seed_b) {
            a.push(p);
        } else {
            b.push(p);
        }
    }
    if a.is_empty() {
        a.push(b.pop().expect("non-empty"));
    }
    if b.is_empty() {
        b.push(a.pop().expect("non-empty"));
    }
    (a, b)
}

fn farthest_pair<T>(items: &[T], cf: impl Fn(&T) -> ClusteringFeature) -> (usize, usize) {
    let mut best = (0usize, items.len() - 1, f64::NEG_INFINITY);
    for i in 0..items.len() {
        for j in (i + 1)..items.len() {
            let dist = cf(&items[i]).centroid_dist2(&cf(&items[j]));
            if dist > best.2 {
                best = (i, j, dist);
            }
        }
    }
    (best.0, best.1)
}

fn subtree_cf(node: &Node, d: usize) -> ClusteringFeature {
    match node {
        Node::Leaf { entries } => entries
            .iter()
            .fold(ClusteringFeature::empty(d), |acc, e| acc.merge(e)),
        Node::Internal { summaries, .. } => summaries
            .iter()
            .fold(ClusteringFeature::empty(d), |acc, e| acc.merge(e)),
    }
}

fn collect_leaves(node: &Node, out: &mut Vec<ClusteringFeature>) {
    match node {
        Node::Leaf { entries } => out.extend(entries.iter().cloned()),
        Node::Internal { children, .. } => {
            for c in children {
                collect_leaves(c, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::data::{Schema, Value};
    use focus_exec::Parallelism;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn blob_table(centers: &[(f64, f64)], per: usize, spread: f64, seed: u64) -> Table {
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::numeric("y"),
        ]));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Table::new(schema);
        for &(cx, cy) in centers {
            for _ in 0..per {
                t.push_row(&[
                    Value::Num(cx + (rng.gen::<f64>() - 0.5) * spread),
                    Value::Num(cy + (rng.gen::<f64>() - 0.5) * spread),
                ]);
            }
        }
        t
    }

    #[test]
    fn cf_additivity() {
        let a = ClusteringFeature::of_point(&[1.0, 2.0]);
        let b = ClusteringFeature::of_point(&[3.0, 4.0]);
        let m = a.merge(&b);
        assert_eq!(m.n, 2);
        assert_eq!(m.ls, vec![4.0, 6.0]);
        assert_eq!(m.ss, 1.0 + 4.0 + 9.0 + 16.0);
        assert_eq!(m.centroid(), vec![2.0, 3.0]);
    }

    #[test]
    fn cf_radius_of_symmetric_pair() {
        // Points (0,0) and (2,0): centroid (1,0), each at distance 1.
        let mut cf = ClusteringFeature::of_point(&[0.0, 0.0]);
        cf.add_point(&[2.0, 0.0]);
        assert!((cf.radius() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn separates_well_spaced_blobs() {
        let data = blob_table(&[(0.0, 0.0), (100.0, 0.0), (0.0, 100.0)], 80, 5.0, 1);
        let r = Birch::new(BirchParams::new(10.0, 3)).fit(&data);
        assert_eq!(r.clusters.len(), 3);
        // Each blob's 80 points share one cluster id.
        for blob in 0..3 {
            let ids: std::collections::HashSet<usize> = r.assignment[blob * 80..(blob + 1) * 80]
                .iter()
                .copied()
                .collect();
            assert_eq!(ids.len(), 1, "blob {blob} split across clusters");
        }
        // And the three blobs get three distinct ids.
        let distinct: std::collections::HashSet<usize> = r.assignment.iter().copied().collect();
        assert_eq!(distinct.len(), 3);
    }

    #[test]
    fn threshold_controls_microcluster_count() {
        let data = blob_table(&[(0.0, 0.0), (50.0, 50.0)], 100, 20.0, 3);
        let fine = Birch::new(BirchParams::new(1.0, 2)).fit(&data);
        let coarse = Birch::new(BirchParams::new(30.0, 2)).fit(&data);
        assert!(
            fine.n_microclusters > coarse.n_microclusters,
            "T=1 gives {} micro-clusters, T=30 gives {}",
            fine.n_microclusters,
            coarse.n_microclusters
        );
    }

    #[test]
    fn microcluster_mass_is_conserved() {
        let data = blob_table(&[(0.0, 0.0), (30.0, 30.0)], 150, 8.0, 5);
        let r = Birch::new(BirchParams::new(3.0, 2)).fit(&data);
        let total: u64 = r.clusters.iter().map(|c| c.n).sum();
        assert_eq!(total, 300, "every point lands in exactly one CF");
    }

    #[test]
    fn exports_cluster_model() {
        let data = blob_table(&[(0.0, 0.0), (60.0, 60.0)], 100, 6.0, 7);
        let r = Birch::new(BirchParams::new(5.0, 2)).fit(&data);
        let model = r.to_model(&data);
        assert_eq!(model.clusters().len(), 2);
        let mass: f64 = model.measures().iter().sum();
        assert!((mass - 1.0).abs() < 1e-12);
        // Every point is inside its assigned cluster's box.
        for (row, &c) in r.assignment.iter().enumerate() {
            assert!(model.clusters()[c].contains(data.row(row)));
        }
    }

    #[test]
    fn agrees_with_kmeans_on_clean_blobs() {
        let data = blob_table(&[(0.0, 0.0), (200.0, 200.0)], 100, 4.0, 9);
        let birch = Birch::new(BirchParams::new(10.0, 2)).fit(&data);
        let kmeans =
            crate::KMeans::new(crate::KMeansParams::new(2).seed(1)).fit(&data, Parallelism::Global);
        // Same partition up to label renaming.
        let agree = birch
            .assignment
            .iter()
            .zip(&kmeans.assignment)
            .filter(|(a, b)| a == b)
            .count();
        let rate = agree.max(data.len() - agree) as f64 / data.len() as f64;
        assert!(rate > 0.99, "agreement {rate}");
    }

    #[test]
    fn single_cluster_k1() {
        let data = blob_table(&[(0.0, 0.0)], 50, 10.0, 11);
        let r = Birch::new(BirchParams::new(2.0, 1)).fit(&data);
        assert_eq!(r.clusters.len(), 1);
        assert!(r.assignment.iter().all(|&a| a == 0));
    }

    #[test]
    fn deep_tree_with_small_branching() {
        // Many spread-out points with branching 2 forces repeated splits
        // through multiple levels; mass must still be conserved.
        let data = blob_table(
            &[
                (0.0, 0.0),
                (40.0, 0.0),
                (0.0, 40.0),
                (40.0, 40.0),
                (20.0, 20.0),
            ],
            60,
            12.0,
            13,
        );
        let r = Birch::new(BirchParams::new(2.0, 5).branching(2)).fit(&data);
        let total: u64 = r.clusters.iter().map(|c| c.n).sum();
        assert_eq!(total, 300);
        assert!(r.n_microclusters >= 5);
    }
}
