//! Model-only upper bounds `δ*` on the deviation (Section 4.1.1,
//! Definition 4.1, Theorem 4.2) — one per model family.
//!
//! Computing the exact deviation requires scanning both datasets to obtain
//! the measure, in each dataset, of regions known only to the other model.
//! `δ*` replaces those unknown measures with the most pessimistic value
//! consistent with the models alone, which:
//!
//! 1. upper-bounds `δ(f_a, g)` for `g ∈ {sum, max}` (see each bound's
//!    dominance argument);
//! 2. for [`lits_upper_bound`] and [`dt_upper_bound`] also satisfies the
//!    triangle inequality (both are an `L1`/`L∞` distance between sparse
//!    measure vectors), so `δ*` embeds a collection of snapshots into a
//!    metric space ([`crate::family::ModelFamily::BOUND_IS_METRIC`]
//!    gates that embedding);
//!    [`cluster_upper_bound`] does **not** — overlapping clusters make
//!    `δ*(A, A) > 0`;
//! 3. needs only the two models — no data scan — making it effectively
//!    instantaneous in an exploratory loop (the "Time for δ*" column of
//!    Figure 13).
//!
//! Every bound returns `0.0` for a pair of empty models: the aggregate of
//! zero regions is the empty sum/max, which [`AggFn::eval`] defines as `0`,
//! never NaN or `−∞`.

use crate::diff::AggFn;
use crate::gcr::{merge_join, remainders, Joined};
use crate::model::{ClusterModel, DtModel, LitsModel};

/// The upper bound `δ*(g)(M1, M2)` of Definition 4.1.
///
/// For each itemset `X` in the GCR (= union of the structures):
/// * frequent in both models → `f_a(σ1, σ2)`;
/// * frequent only in `M1` → `f_a(σ1, 0) = σ1`;
/// * frequent only in `M2` → `f_a(0, σ2) = σ2`;
///
/// aggregated by `g ∈ {sum, max}`. The three cases are the three outcomes
/// of one sort-merge join over the two models' sorted itemset lists,
/// which visits the GCR in its canonical order and reads each support by
/// index: no GCR is materialised and no itemset is looked up.
pub fn lits_upper_bound(m1: &LitsModel, m2: &LitsModel, g: AggFn) -> f64 {
    let (s1, s2) = (m1.supports(), m2.supports());
    g.eval(
        merge_join(m1.itemsets(), m2.itemsets()).map(|(_, at)| match at {
            Joined::Both(i, j) => (s1[i] - s2[j]).abs(),
            Joined::First(i) => s1[i],
            Joined::Second(j) => s2[j],
        }),
    )
}

/// The leaf-mass upper bound `δ*(g)(T1, T2)` for dt-models — Definition 4.1
/// carried over to the partition overlay of Definition 4.2.
///
/// Treat each model as a sparse vector over `(leaf box, class)` keys whose
/// entry is the model's `[leaf][class]` measure; δ* is the `L1` (`g_sum`)
/// or `L∞` (`g_max`) distance between the two vectors, with a key missing
/// from one model read as `0`:
///
/// * a leaf box present in **both** models contributes
///   `|σ1(B, k) − σ2(B, k)|` per class — the *exact* per-region value: both
///   partitions contain `B` and partitions are disjoint, so `B` is its own
///   GCR cell (`B ∩ B' = ∅` for every other leaf `B'` of either model) and
///   the engine's scan measures exactly the masses the models record;
/// * an **unmatched** leaf contributes its full per-class mass — the
///   pessimistic `0` for the other side, exactly as the lits bound treats
///   an itemset frequent in only one model.
///
/// **Dominance** (`δ(f_a, g) ≤ δ*(g)`, the Theorem 4.2 (1) analogue): every
/// unmatched GCR cell is `a_i ∩ b_j` with *both* parents unmatched (a
/// matched parent's other intersections are empty, see above). Per class,
/// `|σ1(cell) − σ2(cell)| ≤ σ1(cell) + σ2(cell)`, and because the other
/// model's partition is exhaustive, those cell masses sum — over the cells
/// refining each unmatched leaf — to exactly the leaf masses the bound
/// charges, for `g_sum`; for `g_max` each cell's value is dominated by
/// `max(σ1(a_i, k), σ2(b_j, k))`, which some unmatched leaf term of the
/// bound dominates in turn. Matched cells are exact. The argument needs the
/// FOCUS contract that each model's measures are its leaves' per-class
/// selectivities in its paired dataset, `f = f_a`, and a shared class count
/// — `DtFamily`'s
/// [`ModelFamily::bound_dominates`](crate::family::ModelFamily::bound_dominates)
/// gates on the checkable parts.
///
/// **Metric**: an `L1`/`L∞` distance between fixed vectors is a
/// pseudo-metric — symmetric, `δ*(T, T) = 0`, triangle inequality — so dt
/// collections embed under δ* (`BOUND_IS_METRIC` is `true`).
pub fn dt_upper_bound(m1: &DtModel, m2: &DtModel, g: AggFn) -> f64 {
    // Greedy first-match by box equality; duplicate leaf boxes (degenerate
    // inputs — a real partition never repeats a box) pair off one-to-one.
    let mut matched2 = vec![false; m2.leaves().len()];
    let mut match_of1: Vec<Option<usize>> = Vec::with_capacity(m1.leaves().len());
    for a in m1.leaves() {
        let hit = m2
            .leaves()
            .iter()
            .enumerate()
            .position(|(j, b)| !matched2[j] && a == b);
        if let Some(j) = hit {
            matched2[j] = true;
        }
        match_of1.push(hit);
    }
    let (k1, k2) = (m1.n_classes(), m2.n_classes());
    let mut terms: Vec<f64> = Vec::new();
    for (i, matched) in match_of1.iter().enumerate() {
        match matched {
            // Matched leaf: per-class difference of the recorded masses,
            // classes beyond either model's count reading as 0.
            Some(j) => {
                for k in 0..k1.max(k2) {
                    let v1 = if k < k1 { m1.measure(i, k) } else { 0.0 };
                    let v2 = if k < k2 { m2.measure(*j, k) } else { 0.0 };
                    terms.push((v1 - v2).abs());
                }
            }
            // Unmatched leaf of m1: full per-class mass.
            None => terms.extend((0..k1).map(|k| m1.measure(i, k))),
        }
    }
    for (j, taken) in matched2.iter().enumerate() {
        if !taken {
            terms.extend((0..k2).map(|k| m2.measure(j, k)));
        }
    }
    g.eval(terms)
}

/// The centroid-mass/box-overlap upper bound `δ*(g)(C1, C2)` for
/// cluster-models.
///
/// Replicates the GCR piece decomposition of [`crate::gcr::gcr_boxes`]
/// (intersections `a_i ∩ b_j`, then remainders of each side) and charges
/// every piece a model-only upper bound on its per-region `f_a` value:
///
/// * an intersection of two *identical* boxes (`a_i == b_j`) is the box
///   itself, so its per-region value is exactly `|m1_i − m2_j|`;
/// * any other non-empty intersection is dominated by
///   `max(σ1(piece), σ2(piece)) ≤ max(m1_i, m2_j)` — a piece of a cluster
///   holds at most the cluster's mass;
/// * a remainder piece of `a_i` lies *outside every cluster of `C2`*, so
///   its `σ2` is at most the mass `C2` leaves uncovered:
///   `û2 = 1 − coverage(C2)`, where the model-only coverage lower bound is
///   `Σ_j m2_j` when `C2`'s boxes are pairwise disjoint (the box-overlap
///   check) and `max_j m2_j` otherwise; the piece is charged
///   `max(m1_i, û2)` — and symmetrically for `C2`'s remainders.
///
/// **Dominance** (`δ(f_a, g) ≤ δ*(g)`): the bound dominates the engine's
/// exact value *region by region* over the identical GCR piece list, so it
/// dominates both the `g_sum` and the `g_max` aggregate. The argument needs
/// the FOCUS contract that each model's measures are its cluster boxes'
/// selectivities in its paired dataset (the exact analogue of lits
/// supports; `f = f_a` is checked by `ClusterFamily`'s
/// [`ModelFamily::bound_dominates`](crate::family::ModelFamily::bound_dominates)).
///
/// **Not a metric**: `δ*(C, C) > 0` whenever `C`'s clusters overlap (the
/// cross pieces `a_i ∩ a_j` are charged `max(m_i, m_j)`), so cluster
/// collections do not embed under δ* — the
/// registry keeps using exact values for them
/// ([`crate::family::ModelFamily::BOUND_IS_METRIC`] is `false`).
pub fn cluster_upper_bound(m1: &ClusterModel, m2: &ClusterModel, g: AggFn) -> f64 {
    let (a, b) = (m1.clusters(), m2.clusters());
    let (u1, u2) = (m1.measures(), m2.measures());
    let uncovered = |boxes: &[crate::region::BoxRegion], masses: &[f64]| -> f64 {
        let disjoint = boxes
            .iter()
            .enumerate()
            .all(|(i, p)| boxes[i + 1..].iter().all(|q| p.intersect(q).is_none()));
        let covered = if disjoint {
            masses.iter().sum::<f64>()
        } else {
            masses.iter().fold(0.0, |m, &x| f64::max(m, x))
        };
        (1.0 - covered).clamp(0.0, 1.0)
    };
    let hat1 = uncovered(a, u1);
    let hat2 = uncovered(b, u2);
    let mut terms: Vec<f64> = Vec::new();
    // Group 1: pairwise intersections, in gcr_boxes' nested-loop order.
    for (i, ra) in a.iter().enumerate() {
        for (j, rb) in b.iter().enumerate() {
            if ra.intersect(rb).is_some() {
                terms.push(if ra == rb {
                    (u1[i] - u2[j]).abs()
                } else {
                    u1[i].max(u2[j])
                });
            }
        }
    }
    // Groups 2 and 3: one term per remainder piece, with the piece's own
    // parent mass against the other side's uncovered-mass bound.
    for (i, ra) in a.iter().enumerate() {
        let pieces = remainders(std::slice::from_ref(ra), b).len();
        terms.extend(std::iter::repeat_n(u1[i].max(hat2), pieces));
    }
    for (j, rb) in b.iter().enumerate() {
        let pieces = remainders(std::slice::from_ref(rb), a).len();
        terms.extend(std::iter::repeat_n(hat1.max(u2[j]), pieces));
    }
    g.eval(terms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{LabeledTable, Schema, Table, TransactionSet, Value};
    use crate::diff::DiffFn;
    use crate::family::{ClusterFamily, DtFamily, LitsFamily};
    use crate::model::{induce_dt_measures, induce_lits_measures};
    use crate::region::{BoxBuilder, BoxRegion, Itemset};
    use focus_exec::Parallelism;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    fn random_dataset(seed: u64, n: usize, skew: f64) -> TransactionSet {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = TransactionSet::new(8);
        for _ in 0..n {
            let mut t = Vec::new();
            for item in 0..8u32 {
                let p = 0.15 + skew * (item as f64 / 8.0) * 0.4;
                if rng.gen::<f64>() < p {
                    t.push(item);
                }
            }
            ts.push(t);
        }
        ts
    }

    /// Mines the exact frequent itemsets of a tiny dataset by enumeration.
    fn brute_force_model(data: &TransactionSet, minsup: f64) -> LitsModel {
        let n_items = data.n_items();
        let mut frequent: Vec<Itemset> = Vec::new();
        // Enumerate all non-empty subsets of the 8-item universe.
        for mask in 1u32..(1 << n_items) {
            let items: Vec<u32> = (0..n_items).filter(|i| mask & (1 << i) != 0).collect();
            frequent.push(Itemset::new(items));
        }
        let counts = crate::model::count_itemsets(data, &frequent, Parallelism::Global);
        let n = data.len() as f64;
        let keep: Vec<(Itemset, f64)> = frequent
            .into_iter()
            .zip(counts)
            .filter(|(_, c)| *c as f64 / n >= minsup)
            .map(|(s, c)| (s, c as f64 / n))
            .collect();
        let (sets, sups): (Vec<_>, Vec<_>) = keep.into_iter().unzip();
        LitsModel::new(sets, sups, minsup, data.len() as u64)
    }

    #[test]
    fn bound_dominates_true_deviation() {
        // Theorem 4.2 (1): δ*(g) ≥ δ(f_a, g) on real data, both aggregates.
        for seed in 0..5u64 {
            let d1 = random_dataset(seed, 400, 0.0);
            let d2 = random_dataset(seed + 100, 400, 1.0);
            let m1 = brute_force_model(&d1, 0.2);
            let m2 = brute_force_model(&d2, 0.2);
            for g in [AggFn::Sum, AggFn::Max] {
                let bound = lits_upper_bound(&m1, &m2, g);
                let exact = crate::deviation::deviate::<LitsFamily>(
                    &m1,
                    &d1,
                    &m2,
                    &d2,
                    DiffFn::Absolute,
                    g,
                    Parallelism::Global,
                )
                .value;
                assert!(
                    bound >= exact - 1e-12,
                    "seed {seed} {g:?}: bound {bound} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn bound_is_exact_for_identical_structures() {
        // When both models share one structure there are no unknown
        // supports and δ* = δ(f_a, g).
        let d1 = random_dataset(1, 300, 0.0);
        let m1 = brute_force_model(&d1, 0.2);
        // Re-measure the same structure on a second dataset.
        let d2 = random_dataset(2, 300, 0.0);
        let m2 = induce_lits_measures(m1.itemsets().to_vec(), m1.minsup(), &d2);
        for g in [AggFn::Sum, AggFn::Max] {
            let bound = lits_upper_bound(&m1, &m2, g);
            let exact = crate::deviation::deviate::<LitsFamily>(
                &m1,
                &d1,
                &m2,
                &d2,
                DiffFn::Absolute,
                g,
                Parallelism::Global,
            )
            .value;
            assert!((bound - exact).abs() < 1e-12, "{g:?}: {bound} vs {exact}");
        }
    }

    #[test]
    fn bound_triangle_inequality() {
        // Theorem 4.2 (2): δ*(g)(A, C) ≤ δ*(g)(A, B) + δ*(g)(B, C).
        let models: Vec<LitsModel> = (0..4u64)
            .map(|s| brute_force_model(&random_dataset(s, 300, s as f64 / 3.0), 0.2))
            .collect();
        for g in [AggFn::Sum, AggFn::Max] {
            for a in 0..models.len() {
                for b in 0..models.len() {
                    for c in 0..models.len() {
                        let ab = lits_upper_bound(&models[a], &models[b], g);
                        let bc = lits_upper_bound(&models[b], &models[c], g);
                        let ac = lits_upper_bound(&models[a], &models[c], g);
                        assert!(
                            ac <= ab + bc + 1e-12,
                            "{g:?} triangle violated: {ac} > {ab} + {bc}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn bound_symmetry_and_identity() {
        let d1 = random_dataset(7, 300, 0.2);
        let d2 = random_dataset(8, 300, 0.8);
        let m1 = brute_force_model(&d1, 0.2);
        let m2 = brute_force_model(&d2, 0.2);
        for g in [AggFn::Sum, AggFn::Max] {
            assert_eq!(lits_upper_bound(&m1, &m2, g), lits_upper_bound(&m2, &m1, g));
            assert_eq!(lits_upper_bound(&m1, &m1, g), 0.0);
        }
    }

    #[test]
    fn bound_needs_no_datasets() {
        // δ* is a pure function of the two models: constructing models with
        // hand-written supports suffices.
        let m1 = LitsModel::new(
            vec![Itemset::from_slice(&[0]), Itemset::from_slice(&[1])],
            vec![0.5, 0.4],
            0.3,
            100,
        );
        let m2 = LitsModel::new(
            vec![Itemset::from_slice(&[0]), Itemset::from_slice(&[2])],
            vec![0.35, 0.6],
            0.3,
            100,
        );
        // |0.5−0.35| + 0.4 (only in m1) + 0.6 (only in m2) = 1.15
        let b = lits_upper_bound(&m1, &m2, AggFn::Sum);
        assert!((b - 1.15).abs() < 1e-12, "got {b}");
        let b = lits_upper_bound(&m1, &m2, AggFn::Max);
        assert!((b - 0.6).abs() < 1e-12, "got {b}");
    }

    // ---- dt bound -------------------------------------------------------

    fn schema2d() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::numeric("y"),
        ]))
    }

    fn labeled_data(seed: u64, n: usize) -> LabeledTable {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = LabeledTable::new(schema2d(), 2);
        for _ in 0..n {
            let x = rng.gen::<f64>() * 100.0;
            let y = rng.gen::<f64>() * 100.0;
            t.push_row(&[Value::Num(x), Value::Num(y)], u32::from(x + y > 100.0));
        }
        t
    }

    fn split_partition(s: &Arc<Schema>, attr: &str, at: f64) -> Vec<BoxRegion> {
        vec![
            BoxBuilder::new(s).lt(attr, at).build(),
            BoxBuilder::new(s).ge(attr, at).build(),
        ]
    }

    #[test]
    fn dt_bound_dominates_true_deviation() {
        let s = schema2d();
        for seed in 0..5u64 {
            let d1 = labeled_data(seed, 400);
            let d2 = labeled_data(seed + 100, 400);
            let m1 = induce_dt_measures(split_partition(&s, "x", 20.0 + seed as f64 * 10.0), &d1);
            let m2 = induce_dt_measures(split_partition(&s, "y", 65.0 - seed as f64 * 10.0), &d2);
            for g in [AggFn::Sum, AggFn::Max] {
                let bound = dt_upper_bound(&m1, &m2, g);
                let exact = crate::deviation::deviate::<DtFamily>(
                    &m1,
                    &d1,
                    &m2,
                    &d2,
                    DiffFn::Absolute,
                    g,
                    Parallelism::Global,
                )
                .value;
                assert!(
                    bound >= exact - 1e-12,
                    "seed {seed} {g:?}: bound {bound} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn dt_bound_exact_for_shared_structure() {
        // When both trees have the same leaf partition every leaf matches,
        // every GCR cell is a shared leaf, and δ* = δ(f_a, g) exactly.
        let s = schema2d();
        let d1 = labeled_data(11, 300);
        let d2 = labeled_data(12, 300);
        let leaves = split_partition(&s, "x", 40.0);
        let m1 = induce_dt_measures(leaves.clone(), &d1);
        let m2 = induce_dt_measures(leaves, &d2);
        for g in [AggFn::Sum, AggFn::Max] {
            let bound = dt_upper_bound(&m1, &m2, g);
            let exact = crate::deviation::deviate::<DtFamily>(
                &m1,
                &d1,
                &m2,
                &d2,
                DiffFn::Absolute,
                g,
                Parallelism::Global,
            )
            .value;
            assert!((bound - exact).abs() < 1e-12, "{g:?}: {bound} vs {exact}");
        }
    }

    #[test]
    fn dt_bound_triangle_inequality() {
        let s = schema2d();
        let models: Vec<DtModel> = (0..4u64)
            .map(|i| {
                let d = labeled_data(i + 20, 300);
                let (attr, at) = if i % 2 == 0 {
                    ("x", 25.0 + i as f64 * 15.0)
                } else {
                    ("y", 70.0 - i as f64 * 15.0)
                };
                induce_dt_measures(split_partition(&s, attr, at), &d)
            })
            .collect();
        for g in [AggFn::Sum, AggFn::Max] {
            for a in 0..models.len() {
                for b in 0..models.len() {
                    for c in 0..models.len() {
                        let ab = dt_upper_bound(&models[a], &models[b], g);
                        let bc = dt_upper_bound(&models[b], &models[c], g);
                        let ac = dt_upper_bound(&models[a], &models[c], g);
                        assert!(
                            ac <= ab + bc + 1e-12,
                            "{g:?} triangle violated: {ac} > {ab} + {bc}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn dt_bound_symmetry_identity_and_hand_check() {
        let s = schema2d();
        let m1 = DtModel::new(
            split_partition(&s, "x", 30.0),
            2,
            vec![0.3, 0.2, 0.1, 0.4],
            100,
        );
        let m2 = DtModel::new(
            split_partition(&s, "x", 50.0),
            2,
            vec![0.25, 0.25, 0.25, 0.25],
            80,
        );
        let m3 = DtModel::new(
            split_partition(&s, "x", 30.0),
            2,
            vec![0.1, 0.4, 0.3, 0.2],
            60,
        );
        for g in [AggFn::Sum, AggFn::Max] {
            assert_eq!(dt_upper_bound(&m1, &m2, g), dt_upper_bound(&m2, &m1, g));
            assert_eq!(dt_upper_bound(&m1, &m1, g), 0.0);
        }
        // m1 vs m2: no leaf matches — all eight masses are charged.
        let b = dt_upper_bound(&m1, &m2, AggFn::Sum);
        assert!((b - 2.0).abs() < 1e-12, "got {b}");
        let b = dt_upper_bound(&m1, &m2, AggFn::Max);
        assert!((b - 0.4).abs() < 1e-12, "got {b}");
        // m1 vs m3: both leaves match — per-class |difference|s only.
        let b = dt_upper_bound(&m1, &m3, AggFn::Sum);
        assert!((b - 0.8).abs() < 1e-12, "got {b}");
        let b = dt_upper_bound(&m1, &m3, AggFn::Max);
        assert!((b - 0.2).abs() < 1e-12, "got {b}");
    }

    #[test]
    fn dt_bound_handles_unequal_class_counts() {
        // The bound stays total (reads missing classes as 0) even though
        // the exact engine — and bound_dominates — require equal counts.
        let s = schema2d();
        let leaves = split_partition(&s, "x", 30.0);
        let m1 = DtModel::new(leaves.clone(), 2, vec![0.3, 0.2, 0.1, 0.4], 100);
        let m2 = DtModel::new(leaves, 3, vec![0.2, 0.2, 0.1, 0.1, 0.2, 0.2], 100);
        // Leaf 0: |0.3−0.2| + |0.2−0.2| + |0−0.1| = 0.2
        // Leaf 1: |0.1−0.1| + |0.4−0.2| + |0−0.2| = 0.4
        let b = dt_upper_bound(&m1, &m2, AggFn::Sum);
        assert!((b - 0.6).abs() < 1e-12, "got {b}");
        let b = dt_upper_bound(&m1, &m2, AggFn::Max);
        assert!((b - 0.2).abs() < 1e-12, "got {b}");
    }

    // ---- cluster bound --------------------------------------------------

    fn points(seed: u64, n: usize) -> Table {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = Table::new(schema2d());
        for _ in 0..n {
            t.push_row(&[
                Value::Num(rng.gen::<f64>() * 100.0),
                Value::Num(rng.gen::<f64>() * 100.0),
            ]);
        }
        t
    }

    /// Builds a cluster-model honouring the dominance contract: each
    /// measure is its box's *selectivity* in the paired dataset.
    fn cluster_model_sel(data: &Table, boxes: Vec<BoxRegion>) -> ClusterModel {
        let n = data.len().max(1) as f64;
        let measures = boxes
            .iter()
            .map(|b| data.rows().filter(|r| b.contains(r)).count() as f64 / n)
            .collect();
        ClusterModel::new(boxes, measures, data.len() as u64)
    }

    #[test]
    fn cluster_bound_dominates_true_deviation() {
        let s = schema2d();
        for seed in 0..5u64 {
            let d1 = points(seed, 400);
            let d2 = points(seed + 100, 400);
            let off = seed as f64 * 5.0;
            // Disjoint boxes in m1; m2's second box overlaps its first.
            let m1 = cluster_model_sel(
                &d1,
                vec![
                    BoxBuilder::new(&s)
                        .range("x", 0.0, 40.0)
                        .range("y", 0.0, 40.0)
                        .build(),
                    BoxBuilder::new(&s)
                        .range("x", 60.0, 100.0)
                        .range("y", 60.0, 100.0)
                        .build(),
                ],
            );
            let m2 = cluster_model_sel(
                &d2,
                vec![
                    BoxBuilder::new(&s)
                        .range("x", off, 50.0 + off)
                        .range("y", 0.0, 50.0)
                        .build(),
                    BoxBuilder::new(&s)
                        .range("x", 30.0, 90.0)
                        .range("y", 30.0, 90.0)
                        .build(),
                ],
            );
            for g in [AggFn::Sum, AggFn::Max] {
                let bound = cluster_upper_bound(&m1, &m2, g);
                let exact = crate::deviation::deviate::<ClusterFamily>(
                    &m1,
                    &d1,
                    &m2,
                    &d2,
                    DiffFn::Absolute,
                    g,
                    Parallelism::Global,
                )
                .value;
                assert!(
                    bound >= exact - 1e-12,
                    "seed {seed} {g:?}: bound {bound} < exact {exact}"
                );
            }
        }
    }

    #[test]
    fn cluster_bound_exact_for_identical_disjoint_models() {
        // Identical models with pairwise-disjoint boxes: every intersection
        // pairs a box with its own copy (exact term 0) and every remainder
        // is empty (each box is subtracted by its own copy), so δ* = 0.
        let s = schema2d();
        let d = points(42, 300);
        let m = cluster_model_sel(
            &d,
            vec![
                BoxBuilder::new(&s).range("x", 0.0, 30.0).build(),
                BoxBuilder::new(&s).range("x", 50.0, 80.0).build(),
            ],
        );
        for g in [AggFn::Sum, AggFn::Max] {
            assert_eq!(cluster_upper_bound(&m, &m, g), 0.0);
        }
    }

    #[test]
    fn cluster_bound_is_not_a_metric() {
        // δ*(A, A) > 0 when A's clusters overlap: the cross-intersections
        // a_0 ∩ a_1 are charged max(m_0, m_1), not 0. This is why
        // ClusterFamily::BOUND_IS_METRIC is false.
        let s = schema2d();
        let a = ClusterModel::new(
            vec![
                BoxBuilder::new(&s).range("x", 0.0, 10.0).build(),
                BoxBuilder::new(&s).range("x", 5.0, 15.0).build(),
            ],
            vec![0.5, 0.5],
            100,
        );
        for g in [AggFn::Sum, AggFn::Max] {
            assert!(
                cluster_upper_bound(&a, &a, g) > 0.0,
                "{g:?}: overlapping self-bound must be positive"
            );
        }
    }

    #[test]
    fn cluster_bound_symmetry_and_hand_check() {
        let s = schema2d();
        // a: one box [0,10) with mass 0.4; b: one box [20,30) with mass 0.3.
        // Disjoint, so coverage bounds are û_a = 0.6, û_b = 0.7. GCR: no
        // intersections, one remainder piece per side:
        //   a's remainder → max(0.4, û_b = 0.7) = 0.7
        //   b's remainder → max(û_a = 0.6, 0.3) = 0.6
        let a = ClusterModel::new(
            vec![BoxBuilder::new(&s).range("x", 0.0, 10.0).build()],
            vec![0.4],
            100,
        );
        let b = ClusterModel::new(
            vec![BoxBuilder::new(&s).range("x", 20.0, 30.0).build()],
            vec![0.3],
            100,
        );
        let v = cluster_upper_bound(&a, &b, AggFn::Sum);
        assert!((v - 1.3).abs() < 1e-12, "got {v}");
        let v = cluster_upper_bound(&a, &b, AggFn::Max);
        assert!((v - 0.7).abs() < 1e-12, "got {v}");
        for g in [AggFn::Sum, AggFn::Max] {
            assert_eq!(
                cluster_upper_bound(&a, &b, g),
                cluster_upper_bound(&b, &a, g)
            );
        }
    }

    // ---- empty-model regressions (all families) -------------------------

    #[test]
    fn empty_vs_empty_bounds_are_zero_not_nan() {
        // Regression: AggFn::Max over an empty GCR must be 0.0 — never NaN
        // or −∞ — for every family's bound.
        let l = LitsModel::new(Vec::new(), Vec::new(), 0.3, 0);
        let t = DtModel::new(Vec::new(), 1, Vec::new(), 0);
        let c = ClusterModel::new(Vec::new(), Vec::new(), 0);
        for g in [AggFn::Sum, AggFn::Max] {
            assert_eq!(lits_upper_bound(&l, &l, g), 0.0, "lits {g:?}");
            assert_eq!(dt_upper_bound(&t, &t, g), 0.0, "dt {g:?}");
            assert_eq!(cluster_upper_bound(&c, &c, g), 0.0, "cluster {g:?}");
        }
    }

    #[test]
    fn empty_vs_nonempty_bounds_are_finite_and_dominate() {
        let s = schema2d();
        let l0 = LitsModel::new(Vec::new(), Vec::new(), 0.3, 0);
        let l1 = LitsModel::new(vec![Itemset::from_slice(&[0])], vec![0.5], 0.3, 100);
        let t0 = DtModel::new(Vec::new(), 2, Vec::new(), 0);
        let t1 = DtModel::new(
            split_partition(&s, "x", 30.0),
            2,
            vec![0.3, 0.2, 0.1, 0.4],
            100,
        );
        let c0 = ClusterModel::new(Vec::new(), Vec::new(), 0);
        let c1 = ClusterModel::new(
            vec![BoxBuilder::new(&s).range("x", 0.0, 10.0).build()],
            vec![0.4],
            100,
        );
        for g in [AggFn::Sum, AggFn::Max] {
            for v in [
                lits_upper_bound(&l0, &l1, g),
                lits_upper_bound(&l1, &l0, g),
                dt_upper_bound(&t0, &t1, g),
                dt_upper_bound(&t1, &t0, g),
                cluster_upper_bound(&c0, &c1, g),
                cluster_upper_bound(&c1, &c0, g),
            ] {
                assert!(v.is_finite() && v >= 0.0, "{g:?}: got {v}");
            }
        }
        // Spot-check the values: the nonempty side's full mass is charged.
        assert_eq!(lits_upper_bound(&l0, &l1, AggFn::Sum), 0.5);
        assert_eq!(dt_upper_bound(&t0, &t1, AggFn::Sum), 1.0);
        assert_eq!(dt_upper_bound(&t0, &t1, AggFn::Max), 0.4);
        // An empty cluster-model covers nothing (û = 1): the lone remainder
        // piece of c1's box is charged max(1, 0.4) = 1.
        assert_eq!(cluster_upper_bound(&c0, &c1, AggFn::Sum), 1.0);
        assert_eq!(cluster_upper_bound(&c0, &c1, AggFn::Max), 1.0);
    }
}
