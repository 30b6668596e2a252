//! Structural and rank operators for exploratory analysis (Section 5).
//!
//! The paper equips FOCUS with a small algebra over sets of regions:
//!
//! * **structural union** `Γ1 ⊔ Γ2` — the GCR of the two structures;
//! * **structural intersection** `Γ1 ⊓ Γ2` — regions present in both
//!   (ordinary set intersection);
//! * **structural difference** — `(Γ1 ⊔ Γ2) − (Γ1 ⊓ Γ2)`;
//! * **predicate** — an explicit region from a predicate (see
//!   [`crate::region::BoxBuilder`]);
//! * **rank** — orders a set of regions by the "interestingness" of the
//!   change between the two datasets (a deviation score per region);
//! * **select** — `top`, `top-n`, `min`, `bottom-n` over a ranked list.
//!
//! The expressions of Section 5.1, e.g.
//! `SelectTop(Rank(Γ_T1 ⊔ Γ_T2, δ(f_a, g_sum)))`, compose directly from
//! these functions.

use crate::gcr::{merge_join, Joined};
use crate::region::Itemset;

// ---------------------------------------------------------------------------
// Structural operators — itemset structures
// ---------------------------------------------------------------------------

/// The itemsets of `a ∪ b` whose place in the two structures `keep`
/// accepts, in canonical order. The inputs may be in any order and repeat
/// itemsets: both are canonicalised before the [`merge_join`].
fn lits_join(a: &[Itemset], b: &[Itemset], keep: fn(Joined) -> bool) -> Vec<Itemset> {
    let canonical = |s: &[Itemset]| {
        let mut s = s.to_vec();
        s.sort();
        s.dedup();
        s
    };
    let (a, b) = (canonical(a), canonical(b));
    merge_join(&a, &b)
        .filter(|&(_, at)| keep(at))
        .map(|(x, _)| x.clone())
        .collect()
}

/// Structural union of two lits structures: their GCR, i.e. the union of the
/// itemset families.
pub fn lits_union(a: &[Itemset], b: &[Itemset]) -> Vec<Itemset> {
    lits_join(a, b, |_| true)
}

/// Structural intersection: itemsets present in both structures.
pub fn lits_intersection(a: &[Itemset], b: &[Itemset]) -> Vec<Itemset> {
    lits_join(a, b, |at| matches!(at, Joined::Both(..)))
}

/// Structural difference: `(a ⊔ b) − (a ⊓ b)` — the regions where the two
/// structures disagree.
pub fn lits_difference(a: &[Itemset], b: &[Itemset]) -> Vec<Itemset> {
    lits_join(a, b, |at| !matches!(at, Joined::Both(..)))
}

// ---------------------------------------------------------------------------
// Structural operators — box-partition structures
// ---------------------------------------------------------------------------

/// Structural union of two dt structures (leaf partitions): their GCR — the
/// overlay partition.
pub fn partition_union(
    a: &[crate::region::BoxRegion],
    b: &[crate::region::BoxRegion],
) -> Vec<crate::region::BoxRegion> {
    crate::gcr::gcr_partition(a, b)
        .into_iter()
        .map(|c| c.region)
        .collect()
}

/// Structural intersection of two box structures: regions appearing in both
/// (structural equality).
pub fn partition_intersection(
    a: &[crate::region::BoxRegion],
    b: &[crate::region::BoxRegion],
) -> Vec<crate::region::BoxRegion> {
    a.iter().filter(|r| b.contains(r)).cloned().collect()
}

/// Structural difference of two box structures:
/// `(a ⊔ b) − (a ⊓ b)`.
pub fn partition_difference(
    a: &[crate::region::BoxRegion],
    b: &[crate::region::BoxRegion],
) -> Vec<crate::region::BoxRegion> {
    let inter = partition_intersection(a, b);
    partition_union(a, b)
        .into_iter()
        .filter(|r| !inter.contains(r))
        .collect()
}

// ---------------------------------------------------------------------------
// Rank and select
// ---------------------------------------------------------------------------

/// A region paired with its deviation score, produced by [`rank`].
#[derive(Debug, Clone, PartialEq)]
pub struct Ranked<R> {
    /// The region.
    pub region: R,
    /// Its deviation (interestingness) score.
    pub deviation: f64,
}

/// The rank operator: scores every region with `score` (a focussed
/// deviation, in the paper) and orders descending by score — "a list of
/// regions in the decreasing order of interestingness".
///
/// Ties keep their input order (stable sort), so results are deterministic.
pub fn rank<R, F>(regions: Vec<R>, mut score: F) -> Vec<Ranked<R>>
where
    F: FnMut(&R) -> f64,
{
    let mut out: Vec<Ranked<R>> = regions
        .into_iter()
        .map(|r| {
            let deviation = score(&r);
            Ranked {
                region: r,
                deviation,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.deviation
            .partial_cmp(&a.deviation)
            .expect("NaN deviation in rank")
    });
    out
}

/// `SelectTop`: the single most interesting region.
pub fn select_top<R>(ranked: &[Ranked<R>]) -> Option<&Ranked<R>> {
    ranked.first()
}

/// `SelectTopN`: the `n` most interesting regions.
pub fn select_top_n<R>(ranked: &[Ranked<R>], n: usize) -> &[Ranked<R>] {
    &ranked[..n.min(ranked.len())]
}

/// `SelectMin`: the least interesting region.
pub fn select_min<R>(ranked: &[Ranked<R>]) -> Option<&Ranked<R>> {
    ranked.last()
}

/// `SelectBottomN`: the `n` least interesting regions (still in descending
/// score order, mirroring the paper's list semantics).
pub fn select_bottom_n<R>(ranked: &[Ranked<R>], n: usize) -> &[Ranked<R>] {
    let n = n.min(ranked.len());
    &ranked[ranked.len() - n..]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Schema;
    use crate::region::BoxBuilder;
    use std::sync::Arc;

    fn iset(items: &[u32]) -> Itemset {
        Itemset::from_slice(items)
    }

    #[test]
    fn lits_set_algebra() {
        let a = vec![iset(&[0]), iset(&[1]), iset(&[0, 1])];
        let b = vec![iset(&[1]), iset(&[2])];
        assert_eq!(lits_union(&a, &b).len(), 4);
        assert_eq!(lits_intersection(&a, &b), vec![iset(&[1])]);
        let diff = lits_difference(&a, &b);
        assert_eq!(diff.len(), 3);
        assert!(!diff.contains(&iset(&[1])));
    }

    #[test]
    fn lits_union_canonicalises_unsorted_input() {
        let a = vec![iset(&[0]), iset(&[0, 1])];
        let b = vec![iset(&[1]), iset(&[0]), iset(&[1])];
        assert_eq!(
            lits_union(&a, &b),
            vec![iset(&[0]), iset(&[0, 1]), iset(&[1])]
        );
    }

    #[test]
    fn lits_difference_of_identical_is_empty() {
        let a = vec![iset(&[0]), iset(&[1])];
        assert!(lits_difference(&a, &a).is_empty());
    }

    #[test]
    fn partition_algebra() {
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![
            BoxBuilder::new(&s).lt("x", 10.0).build(),
            BoxBuilder::new(&s).ge("x", 10.0).build(),
        ];
        let b = vec![
            BoxBuilder::new(&s).lt("x", 10.0).build(),
            BoxBuilder::new(&s).range("x", 10.0, 20.0).build(),
            BoxBuilder::new(&s).ge("x", 20.0).build(),
        ];
        // Union (overlay): [<10), [10,20), [≥20) — 3 regions.
        assert_eq!(partition_union(&a, &b).len(), 3);
        // Intersection: only [<10) is common to both structures.
        let inter = partition_intersection(&a, &b);
        assert_eq!(inter.len(), 1);
        // Difference: overlay minus the shared region.
        assert_eq!(partition_difference(&a, &b).len(), 2);
    }

    #[test]
    fn rank_orders_descending_and_stable() {
        let regions = vec!["a", "b", "c", "d"];
        let scores = [(0.1), (0.9), (0.9), (0.5)];
        let ranked = rank(regions, |r| scores[(r.as_bytes()[0] - b'a') as usize]);
        let order: Vec<&str> = ranked.iter().map(|r| r.region).collect();
        // b before c: ties keep input order.
        assert_eq!(order, vec!["b", "c", "d", "a"]);
    }

    #[test]
    fn selects() {
        let ranked = rank(vec![1, 2, 3], |&x| x as f64);
        assert_eq!(select_top(&ranked).unwrap().region, 3);
        assert_eq!(select_min(&ranked).unwrap().region, 1);
        let top2: Vec<i32> = select_top_n(&ranked, 2).iter().map(|r| r.region).collect();
        assert_eq!(top2, vec![3, 2]);
        let bot2: Vec<i32> = select_bottom_n(&ranked, 2)
            .iter()
            .map(|r| r.region)
            .collect();
        assert_eq!(bot2, vec![2, 1]);
        // Overflow-safe.
        assert_eq!(select_top_n(&ranked, 10).len(), 3);
        assert!(select_top::<i32>(&[]).is_none());
    }
}
