//! Greatest common refinement (GCR) of structural components.
//!
//! The refinement relation `≼` (Definition 3.4) orders structural
//! components: `Γ1 ≼ Γ2` when every region of `Γ2` is exactly covered by a
//! set of regions of `Γ1` (measures add up for any dataset). The GCR of two
//! structures is their greatest lower bound under `≼`; extending both models
//! to the GCR is what makes two structurally different models comparable
//! (Definition 3.6).
//!
//! * **lits** (Section 4.1): structures are sets of itemsets ordered by `⊇`;
//!   the GCR is the union of the two families. Both families are kept in
//!   canonical (ascending, duplicate-free) order, so the union is one
//!   sort-merge join that also tells the δ* bound and measure extension
//!   where each itemset sits in each model.
//! * **dt** (Section 4.2, Definition 4.2): structures are leaf partitions of
//!   the attribute space; the GCR is the overlay — all non-empty pairwise
//!   intersections of leaf cells ("anding all possible pairs of predicates").
//! * **cluster**: same overlay idea but the regions need not be exhaustive,
//!   so the GCR adds the *remainders* — the parts of each cluster not
//!   covered by the other model's clusters — decomposed into disjoint boxes.

use crate::region::{BoxRegion, Itemset};

/// Where one itemset of a [`merge_join`] sits: its index in the first
/// list, in the second, or in both.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Joined {
    First(usize),
    Second(usize),
    Both(usize, usize),
}

/// The sort-merge join of two canonical itemset lists (strictly ascending,
/// as [`LitsModel::itemsets`](crate::model::LitsModel::itemsets) always
/// is): every itemset of `a ∪ b` once, in ascending order, with its index
/// in `a` and/or `b`. One forward cursor per list, `|a| + |b|` steps at
/// most, no allocation. A subsequence of either list (a ρ-restricted GCR)
/// is canonical too. Panics on a list that is not canonical; the check
/// costs one more `|a| + |b|` comparisons.
pub(crate) fn merge_join<'a>(
    a: &'a [Itemset],
    b: &'a [Itemset],
) -> impl Iterator<Item = (&'a Itemset, Joined)> {
    let canonical = |s: &[Itemset]| s.windows(2).all(|w| w[0] < w[1]);
    assert!(canonical(a) && canonical(b), "itemsets not canonical");
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        let step = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => (x, Joined::Both(i, j)),
            (Some(x), y) if y.is_none_or(|y| x < y) => (x, Joined::First(i)),
            (_, Some(y)) => (y, Joined::Second(j)),
            (_, None) => return None,
        };
        i += usize::from(!matches!(step.1, Joined::Second(_)));
        j += usize::from(!matches!(step.1, Joined::First(_)));
        Some(step)
    })
}

/// GCR of two lits-model structures: the union of the itemset families in
/// canonical order (Proposition 4.1 — the powerset with `⊇` is a
/// meet-semilattice and the meet is the union). Both inputs must be
/// canonical (strictly ascending, as `LitsModel::itemsets` always is);
/// debug builds assert it.
pub fn gcr_lits(a: &[Itemset], b: &[Itemset]) -> Vec<Itemset> {
    merge_join(a, b).map(|(x, _)| x.clone()).collect()
}

/// A cell of a dt-model GCR: the intersection of leaf `i` of the first model
/// with leaf `j` of the second, remembering its parentage so measures can be
/// attributed back to the original leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayCell {
    /// The geometric cell.
    pub region: BoxRegion,
    /// Index of the first model's leaf this cell refines.
    pub left: usize,
    /// Index of the second model's leaf this cell refines.
    pub right: usize,
}

/// GCR of two exhaustive leaf partitions: all non-empty pairwise
/// intersections (Definition 4.2). Because both inputs partition the
/// attribute space, the output partitions it too and refines both inputs.
pub fn gcr_partition(a: &[BoxRegion], b: &[BoxRegion]) -> Vec<OverlayCell> {
    overlay_pairs(a, b)
        .map(|(i, j)| OverlayCell {
            region: a[i].intersect(&b[j]).expect("the leaves intersect"),
            left: i,
            right: j,
        })
        .collect()
}

/// The leaf pairs `(i, j)` whose boxes intersect, row-major: the cells of
/// [`gcr_partition`] in its order, without building their regions. A
/// measure scan that routes rows by leaf pair numbers its cells by this.
pub(crate) fn overlay_pairs<'a>(
    a: &'a [BoxRegion],
    b: &'a [BoxRegion],
) -> impl Iterator<Item = (usize, usize)> + 'a {
    a.iter().enumerate().flat_map(move |(i, ra)| {
        b.iter()
            .enumerate()
            .filter(move |(_, rb)| ra.intersects(rb))
            .map(move |(j, _)| (i, j))
    })
}

/// GCR of two *non-exhaustive* box families (cluster-models).
///
/// Produces three groups of disjoint regions:
/// 1. pairwise intersections `aᵢ ∩ bⱼ`;
/// 2. remainders `aᵢ \ ∪ⱼ bⱼ` (parts of each left cluster the right model
///    does not cover);
/// 3. remainders `bⱼ \ ∪ᵢ aᵢ`.
///
/// Together these refine every input region: each `aᵢ` is exactly the union
/// of its intersections with the `b`s plus its remainder (and symmetrically),
/// so measures add up for any dataset — the Definition 3.4 condition.
pub fn gcr_boxes(a: &[BoxRegion], b: &[BoxRegion]) -> Vec<BoxRegion> {
    let mut out = Vec::new();
    for ra in a {
        for rb in b {
            if let Some(r) = ra.intersect(rb) {
                out.push(r);
            }
        }
    }
    out.extend(remainders(a, b));
    out.extend(remainders(b, a));
    out
}

/// For each region of `of`, the disjoint boxes covering its part not covered
/// by any region of `minus`. `pub(crate)` so [`crate::bound`] can replicate
/// the exact piece decomposition [`gcr_boxes`] produces, region by region.
pub(crate) fn remainders(of: &[BoxRegion], minus: &[BoxRegion]) -> Vec<BoxRegion> {
    let mut out = Vec::new();
    for r in of {
        let mut pieces = vec![r.clone()];
        for m in minus {
            let mut next = Vec::new();
            for p in pieces {
                next.extend(p.subtract(m));
            }
            pieces = next;
            if pieces.is_empty() {
                break;
            }
        }
        out.extend(pieces);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Schema, Value};
    use crate::region::BoxBuilder;
    use std::sync::Arc;

    #[test]
    fn merge_join_reports_where_each_itemset_sits() {
        let a = vec![Itemset::from_slice(&[0]), Itemset::from_slice(&[0, 1])];
        let b = vec![Itemset::from_slice(&[0]), Itemset::from_slice(&[1])];
        let joined: Vec<(Vec<u32>, Joined)> = merge_join(&a, &b)
            .map(|(x, at)| (x.items().to_vec(), at))
            .collect();
        assert_eq!(
            joined,
            vec![
                (vec![0], Joined::Both(0, 0)),
                (vec![0, 1], Joined::First(1)),
                (vec![1], Joined::Second(1)),
            ]
        );
        assert_eq!(merge_join(&[], &b).count(), 2);
        assert_eq!(merge_join(&a, &[]).count(), 2);
        assert_eq!(merge_join(&[], &[]).count(), 0);
    }

    #[test]
    #[should_panic(expected = "itemsets not canonical")]
    fn gcr_lits_rejects_unsorted_input() {
        let a = vec![Itemset::from_slice(&[1]), Itemset::from_slice(&[0])];
        gcr_lits(&a, &[]);
    }

    #[test]
    fn gcr_lits_paper_figure_6() {
        // L1 = {a, b, ab}, L2 = {b, c, bc} over items a=0, b=1, c=2.
        // GCR = {a, b, c, ab, bc} — five itemsets. Both lists are in
        // canonical order, as a model holds them.
        let l1 = vec![
            Itemset::from_slice(&[0]),
            Itemset::from_slice(&[0, 1]),
            Itemset::from_slice(&[1]),
        ];
        let l2 = vec![
            Itemset::from_slice(&[1]),
            Itemset::from_slice(&[1, 2]),
            Itemset::from_slice(&[2]),
        ];
        assert_eq!(gcr_lits(&l1, &l2).len(), 5);
    }

    fn schema2d() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Schema::numeric("age"),
            Schema::numeric("salary"),
        ]))
    }

    #[test]
    fn gcr_partition_overlay_counts() {
        // T1 splits age at 30 (2 leaves); T2 splits salary at 80K (2 leaves).
        // The overlay is a 2×2 grid: 4 cells.
        let s = schema2d();
        let t1 = vec![
            BoxBuilder::new(&s).lt("age", 30.0).build(),
            BoxBuilder::new(&s).ge("age", 30.0).build(),
        ];
        let t2 = vec![
            BoxBuilder::new(&s).lt("salary", 80_000.0).build(),
            BoxBuilder::new(&s).ge("salary", 80_000.0).build(),
        ];
        let cells = gcr_partition(&t1, &t2);
        assert_eq!(cells.len(), 4);
        // Parentage covers every (left, right) pair exactly once here.
        let mut pairs: Vec<(usize, usize)> = cells.iter().map(|c| (c.left, c.right)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn gcr_partition_refines_both_inputs() {
        // Each input leaf must equal the union of its overlay cells:
        // verified pointwise on a grid of probe points.
        let s = schema2d();
        let t1 = vec![
            BoxBuilder::new(&s).lt("age", 30.0).build(),
            BoxBuilder::new(&s).range("age", 30.0, 50.0).build(),
            BoxBuilder::new(&s).ge("age", 50.0).build(),
        ];
        let t2 = vec![
            BoxBuilder::new(&s).lt("salary", 80_000.0).build(),
            BoxBuilder::new(&s).ge("salary", 80_000.0).build(),
        ];
        let cells = gcr_partition(&t1, &t2);
        for age in [10.0, 30.0, 40.0, 50.0, 90.0] {
            for salary in [10_000.0, 80_000.0, 200_000.0] {
                let row = [Value::Num(age), Value::Num(salary)];
                // Exactly one cell contains each point (it is a partition)…
                let hits: Vec<&OverlayCell> =
                    cells.iter().filter(|c| c.region.contains(&row)).collect();
                assert_eq!(hits.len(), 1, "point ({age},{salary})");
                // …and its parentage agrees with the original partitions.
                let c = hits[0];
                assert!(t1[c.left].contains(&row));
                assert!(t2[c.right].contains(&row));
            }
        }
    }

    #[test]
    fn gcr_partition_skips_empty_intersections() {
        let s = schema2d();
        let t1 = vec![
            BoxBuilder::new(&s).lt("age", 30.0).build(),
            BoxBuilder::new(&s).ge("age", 30.0).build(),
        ];
        // T2 also splits on age — half the pairwise intersections are empty.
        let t2 = vec![
            BoxBuilder::new(&s).lt("age", 30.0).build(),
            BoxBuilder::new(&s).ge("age", 30.0).build(),
        ];
        let cells = gcr_partition(&t1, &t2);
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn gcr_boxes_cluster_overlap() {
        // Two overlapping clusters on a line: a = [0,10), b = [5,15).
        // GCR: intersection [5,10), remainder of a [0,5), remainder of b
        // [10,15) — three disjoint pieces covering a ∪ b.
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![BoxBuilder::new(&s).range("x", 0.0, 10.0).build()];
        let b = vec![BoxBuilder::new(&s).range("x", 5.0, 15.0).build()];
        let g = gcr_boxes(&a, &b);
        assert_eq!(g.len(), 3);
        for (i, p) in g.iter().enumerate() {
            for q in &g[i + 1..] {
                assert!(p.intersect(q).is_none(), "pieces must be disjoint");
            }
        }
        // Pointwise coverage of a: [0,10) must be exactly covered.
        for x in [0.0, 2.5, 5.0, 7.5, 9.9] {
            let row = [Value::Num(x)];
            let hits = g.iter().filter(|r| r.contains(&row)).count();
            assert_eq!(hits, 1, "x = {x}");
        }
    }

    #[test]
    fn gcr_boxes_disjoint_clusters_pass_through() {
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![BoxBuilder::new(&s).range("x", 0.0, 1.0).build()];
        let b = vec![BoxBuilder::new(&s).range("x", 5.0, 6.0).build()];
        let g = gcr_boxes(&a, &b);
        // No intersections; each cluster survives as its own remainder.
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn gcr_boxes_identical_families_no_remainder() {
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![BoxBuilder::new(&s).range("x", 0.0, 1.0).build()];
        let g = gcr_boxes(&a, &a);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0], a[0]);
    }

    #[test]
    fn remainders_subtract_union_not_pieces() {
        // One left cluster covered by the union of two right clusters: the
        // remainder must be empty even though neither right cluster alone
        // covers it.
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![BoxBuilder::new(&s).range("x", 0.0, 10.0).build()];
        let b = vec![
            BoxBuilder::new(&s).range("x", 0.0, 6.0).build(),
            BoxBuilder::new(&s).range("x", 6.0, 10.0).build(),
        ];
        assert!(remainders(&a, &b).is_empty());
    }
}
