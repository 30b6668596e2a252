//! Reference tree fit for the differential test: the per-node-sort split
//! search and subtree builder that the presorted attribute lists replaced.
//! Every node copies its rows and sorts them once per numeric attribute, and
//! partitions them through [`SplitRule::goes_left`] on the table's rows.
//! Sequential only; the fitted tree must equal [`DecisionTree::fit_par`]'s
//! at every thread count.

use crate::split::{gini, proportion, split_impurity, Candidate, SplitRule};
use crate::tree::{DecisionTree, Node, TreeParams};
use focus_core::data::{AttrType, LabeledTable};
use focus_core::region::CatMask;
use std::sync::Arc;

/// Fits a tree the way the per-node-sort builder did.
pub(crate) fn fit(data: &LabeledTable, params: TreeParams) -> DecisionTree {
    let rows: Vec<usize> = (0..data.len()).collect();
    DecisionTree {
        nodes: build_subtree(data, rows, 0, &params),
        n_classes: data.n_classes,
        n_rows: data.len() as u64,
        schema: Arc::clone(data.table.schema()),
    }
}

fn build_subtree(
    data: &LabeledTable,
    mut rows: Vec<usize>,
    depth: usize,
    params: &TreeParams,
) -> Vec<Node> {
    let k = data.n_classes as usize;
    let mut counts = vec![0u64; k];
    for &r in &rows {
        counts[data.labels[r] as usize] += 1;
    }
    let make_leaf = |counts: Vec<u64>| -> Vec<Node> {
        let prediction = counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))
            .map(|(c, _)| c as u32)
            .unwrap_or(0);
        vec![Node::Leaf { counts, prediction }]
    };

    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    if pure || depth >= params.max_depth || rows.len() < 2 {
        return make_leaf(counts);
    }
    let Some(cand) = best_split(data, &rows, params.min_leaf) else {
        return make_leaf(counts);
    };
    if gini(&counts) - cand.impurity < params.min_gain {
        return make_leaf(counts);
    }

    let right_rows: Vec<usize> = rows
        .iter()
        .copied()
        .filter(|&r| !cand.rule.goes_left(data.table.row(r)))
        .collect();
    rows.retain(|&r| cand.rule.goes_left(data.table.row(r)));
    let left_nodes = build_subtree(data, rows, depth + 1, params);
    let right_nodes = build_subtree(data, right_rows, depth + 1, params);

    let mut nodes = vec![Node::Internal {
        rule: cand.rule,
        left: 1,
        right: 1 + left_nodes.len(),
    }];
    let left_len = left_nodes.len();
    for (block, offset) in [(left_nodes, 1), (right_nodes, 1 + left_len)] {
        nodes.extend(block.into_iter().map(|n| match n {
            Node::Internal { rule, left, right } => Node::Internal {
                rule,
                left: left + offset,
                right: right + offset,
            },
            leaf => leaf,
        }));
    }
    nodes
}

fn best_split(data: &LabeledTable, rows: &[usize], min_leaf: usize) -> Option<Candidate> {
    let k = data.n_classes as usize;
    let schema = data.table.schema();
    let mut best: Option<Candidate> = None;
    for attr in 0..schema.len() {
        let c = match &schema.attr(attr).ty {
            AttrType::Numeric => best_numeric_split(data, rows, attr, min_leaf, k),
            AttrType::Categorical { cardinality } => {
                best_categorical_split(data, rows, attr, *cardinality, min_leaf, k)
            }
        };
        if let Some(c) = c {
            if best.as_ref().is_none_or(|b| c.impurity < b.impurity) {
                best = Some(c);
            }
        }
    }
    best
}

fn best_numeric_split(
    data: &LabeledTable,
    rows: &[usize],
    attr: usize,
    min_leaf: usize,
    k: usize,
) -> Option<Candidate> {
    let mut sorted = rows.to_vec();
    sorted.sort_by(|&a, &b| {
        data.table.row(a)[attr]
            .as_num()
            .partial_cmp(&data.table.row(b)[attr].as_num())
            .expect("NaN attribute value")
    });
    let mut left = vec![0u64; k];
    let mut right = vec![0u64; k];
    for &r in sorted.iter() {
        right[data.labels[r] as usize] += 1;
    }
    let mut best: Option<Candidate> = None;
    for i in 0..sorted.len().saturating_sub(1) {
        let r = sorted[i];
        let label = data.labels[r] as usize;
        left[label] += 1;
        right[label] -= 1;
        let v = data.table.row(r)[attr].as_num();
        let v_next = data.table.row(sorted[i + 1])[attr].as_num();
        if v == v_next {
            continue;
        }
        let nl = i + 1;
        let nr = sorted.len() - nl;
        if nl < min_leaf || nr < min_leaf {
            continue;
        }
        let imp = split_impurity(&left, &right);
        if best.as_ref().is_none_or(|b| imp < b.impurity) {
            best = Some(Candidate {
                rule: SplitRule::Threshold {
                    attr,
                    threshold: (v + v_next) / 2.0,
                },
                impurity: imp,
            });
        }
    }
    best
}

fn best_categorical_split(
    data: &LabeledTable,
    rows: &[usize],
    attr: usize,
    cardinality: u32,
    min_leaf: usize,
    k: usize,
) -> Option<Candidate> {
    let mut cat_counts = vec![0u64; cardinality as usize * k];
    for &r in rows {
        let code = data.table.row(r)[attr].as_cat() as usize;
        cat_counts[code * k + data.labels[r] as usize] += 1;
    }
    let present: Vec<u32> = (0..cardinality)
        .filter(|&c| (0..k).any(|j| cat_counts[c as usize * k + j] > 0))
        .collect();
    if present.len() < 2 {
        return None;
    }
    let eval_mask = |mask: &CatMask| -> Option<Candidate> {
        let mut left = vec![0u64; k];
        let mut right = vec![0u64; k];
        for &c in &present {
            let side = if mask.contains(c) {
                &mut left
            } else {
                &mut right
            };
            for j in 0..k {
                side[j] += cat_counts[c as usize * k + j];
            }
        }
        let nl: u64 = left.iter().sum();
        let nr: u64 = right.iter().sum();
        if (nl as usize) < min_leaf || (nr as usize) < min_leaf {
            return None;
        }
        Some(Candidate {
            rule: SplitRule::Categories {
                attr,
                mask: mask.clone(),
            },
            impurity: split_impurity(&left, &right),
        })
    };
    let mut best: Option<Candidate> = None;
    let mut consider = |c: Option<Candidate>| {
        if let Some(c) = c {
            if best.as_ref().is_none_or(|b| c.impurity < b.impurity) {
                best = Some(c);
            }
        }
    };
    if k == 2 {
        let mut ordered = present.clone();
        ordered.sort_by(|&a, &b| {
            let pa = proportion(&cat_counts, a as usize, k);
            let pb = proportion(&cat_counts, b as usize, k);
            pa.partial_cmp(&pb).expect("finite proportions")
        });
        for cut in 1..ordered.len() {
            consider(eval_mask(&CatMask::of(cardinality, &ordered[..cut])));
        }
    } else {
        for &c in &present {
            consider(eval_mask(&CatMask::of(cardinality, &[c])));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::data::{Schema, Value};
    use focus_exec::Parallelism;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A random table of 2–5 attributes, each numeric or categorical. Numeric
    /// values come from a set of at most 6 values, so ties are dense;
    /// classes number 2–4, so both categorical split paths run. One table in
    /// three is large enough for the fit to fork sibling subtrees and fan the
    /// split search out.
    fn random_table(rng: &mut StdRng) -> LabeledTable {
        let n_attrs = rng.gen_range(2..6);
        let attrs: Vec<_> = (0..n_attrs)
            .map(|a| {
                if rng.gen_bool(0.6) {
                    Schema::numeric(&format!("x{a}"))
                } else {
                    Schema::categorical(&format!("c{a}"), rng.gen_range(1..7))
                }
            })
            .collect();
        let schema = Arc::new(Schema::new(attrs));
        let n_classes = rng.gen_range(2..5);
        let mut data = LabeledTable::new(Arc::clone(&schema), n_classes);
        let levels: Vec<Vec<f64>> = (0..n_attrs)
            .map(|_| {
                let k = rng.gen_range(1..7);
                (0..k)
                    .map(|_| f64::from(rng.gen_range(-5i32..6)) * 0.5)
                    .collect()
            })
            .collect();
        let n = if rng.gen_bool(1.0 / 3.0) {
            rng.gen_range(512..2000)
        } else {
            rng.gen_range(1..200)
        };
        for _ in 0..n {
            let row: Vec<Value> = (0..n_attrs)
                .map(|a| match &schema.attr(a).ty {
                    AttrType::Numeric => Value::Num(levels[a][rng.gen_range(0..levels[a].len())]),
                    AttrType::Categorical { cardinality } => {
                        Value::Cat(rng.gen_range(0..*cardinality))
                    }
                })
                .collect();
            // Labels lean on the first attribute so trees grow past the root.
            let lean = match row[0] {
                Value::Num(x) => u32::from(x > 0.0),
                Value::Cat(c) => c % 2,
            };
            let label = if rng.gen_bool(0.7) {
                lean % n_classes
            } else {
                rng.gen_range(0..n_classes)
            };
            data.push_row(&row, label);
        }
        data
    }

    #[test]
    fn presorted_fit_equals_per_node_sort_fit() {
        let mut rng = StdRng::seed_from_u64(0x5119);
        for case in 0..200 {
            let data = random_table(&mut rng);
            // Half the cases draw `min_leaf` from all of 1..=n; the rest keep
            // it small so the trees grow deep.
            let min_leaf_max = if rng.gen_bool(0.5) { data.len() } else { 5 };
            let params = TreeParams::default()
                .max_depth(rng.gen_range(0..13))
                .min_leaf(rng.gen_range(1..min_leaf_max + 1));
            let want = fit(&data, params);
            for par in [
                Parallelism::Sequential,
                Parallelism::Threads(2),
                Parallelism::Threads(4),
                Parallelism::Threads(7),
            ] {
                let got = DecisionTree::fit_par(&data, params, par);
                assert_eq!(got, want, "case {case}, {par:?}, {params:?}");
            }
        }
    }
}
