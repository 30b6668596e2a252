//! Tree construction, prediction, and export to FOCUS dt-models.

use crate::lists::{NodeLists, Presorted, SplitBuffers};
use crate::split::{best_split, gini, SplitRule};
use focus_core::data::{LabeledTable, Value};
use focus_core::model::DtModel;
use focus_core::region::{AttrConstraint, BoxRegion};
use focus_exec::Parallelism;
use std::sync::Arc;

/// Minimum rows in a node before its sibling subtrees are worth forking to
/// another thread: below this, split search is cheap enough that the spawn
/// costs more than it saves.
const PAR_SUBTREE_MIN_ROWS: usize = 2 * focus_exec::DEFAULT_GRAIN;

/// Minimum number of rows required to attempt a split.
const MIN_SPLIT: usize = 2;

/// Pre-pruning parameters for tree construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TreeParams {
    /// Maximum tree depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of training rows in each leaf.
    pub min_leaf: usize,
    /// Minimum Gini-impurity reduction for a split to be kept.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        Self {
            max_depth: 12,
            min_leaf: 1,
            min_gain: 1e-9,
        }
    }
}

impl TreeParams {
    /// Sets the maximum depth.
    pub fn max_depth(mut self, d: usize) -> Self {
        self.max_depth = d;
        self
    }

    /// Sets the minimum leaf size.
    pub fn min_leaf(mut self, n: usize) -> Self {
        self.min_leaf = n.max(1);
        self
    }

    /// Sets the minimum impurity gain.
    pub fn min_gain(mut self, g: f64) -> Self {
        self.min_gain = g;
        self
    }
}

/// A tree node: internal (rule + children) or leaf (class counts).
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Node {
    Internal {
        rule: SplitRule,
        left: usize,
        right: usize,
    },
    Leaf {
        /// Training class counts at this leaf.
        counts: Vec<u64>,
        /// Majority class (ties to the lower class code).
        prediction: u32,
    },
}

/// A fitted binary decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    pub(crate) nodes: Vec<Node>,
    pub(crate) n_classes: u32,
    pub(crate) n_rows: u64,
    pub(crate) schema: Arc<focus_core::data::Schema>,
}

impl DecisionTree {
    /// Fits a tree on a labelled table at the process-wide default
    /// parallelism (see [`DecisionTree::fit_par`]).
    pub fn fit(data: &LabeledTable, params: TreeParams) -> Self {
        Self::fit_par(data, params, Parallelism::Global)
    }

    /// Fits a tree with sibling subtrees recursed on `par` worker threads.
    ///
    /// Each numeric attribute is sorted once, before the root's split
    /// search, and every split stably partitions the sorted lists into the
    /// children's (SLIQ's attribute lists; see the crate docs for why the
    /// tree equals a per-node sort's, bit for bit).
    ///
    /// Parallelism enters in three places, none of which can change the
    /// result: the attributes are sorted concurrently; the greedy split
    /// search evaluates attributes concurrently (each attribute's sweep is
    /// self-contained; candidates fold in attribute order); and after a
    /// split the two sibling subtrees build concurrently via
    /// [`focus_exec::join`], each fork halving the remaining thread budget.
    /// Subtrees assemble in left-before-right preorder, reproducing the
    /// sequential node layout exactly, so the fitted tree is
    /// **bit-identical** for every thread count.
    pub fn fit_par(data: &LabeledTable, params: TreeParams, par: Parallelism) -> Self {
        assert!(!data.is_empty(), "cannot fit a tree on an empty dataset");
        let mut lists = Presorted::new(data, par);
        let fit = Fit {
            labels: &data.labels,
            n_classes: data.n_classes as usize,
            params: &params,
        };
        let nodes = build_subtree(
            &fit,
            lists.root(),
            &mut SplitBuffers::new(data.len()),
            0,
            par.threads(),
        );
        Self {
            nodes,
            n_classes: data.n_classes,
            n_rows: data.len() as u64,
            schema: Arc::clone(data.table.schema()),
        }
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Number of leaves.
    pub fn n_leaves(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n, Node::Leaf { .. }))
            .count()
    }

    /// Depth of the tree (root-only tree has depth 0).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], i: usize) -> usize {
            match &nodes[i] {
                Node::Leaf { .. } => 0,
                Node::Internal { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// Predicts the class of a row by routing it to a leaf.
    pub fn predict(&self, row: &[Value]) -> u32 {
        let mut i = 0;
        loop {
            match &self.nodes[i] {
                Node::Leaf { prediction, .. } => return *prediction,
                Node::Internal { rule, left, right } => {
                    i = if rule.goes_left(row) { *left } else { *right };
                }
            }
        }
    }

    /// Fraction of `data` the tree misclassifies.
    pub fn misclassification_rate(&self, data: &LabeledTable) -> f64 {
        if data.is_empty() {
            return 0.0;
        }
        let wrong = data
            .rows()
            .filter(|(row, label)| self.predict(row) != *label)
            .count();
        wrong as f64 / data.len() as f64
    }

    /// Exports the tree as a FOCUS [`DtModel`]: the leaf-cell partition of
    /// the attribute space plus the per-(leaf, class) selectivities measured
    /// on the training data.
    pub fn to_model(&self) -> DtModel {
        let mut leaves: Vec<BoxRegion> = Vec::new();
        let mut measures: Vec<f64> = Vec::new();
        let n = self.n_rows.max(1) as f64;
        let root_box = BoxRegion::full(&self.schema);
        self.collect_leaves(0, root_box, &mut leaves, &mut measures, n);
        DtModel::new(leaves, self.n_classes, measures, self.n_rows)
    }

    fn collect_leaves(
        &self,
        i: usize,
        region: BoxRegion,
        leaves: &mut Vec<BoxRegion>,
        measures: &mut Vec<f64>,
        n: f64,
    ) {
        match &self.nodes[i] {
            Node::Leaf { counts, .. } => {
                for &c in counts {
                    measures.push(c as f64 / n);
                }
                leaves.push(region);
            }
            Node::Internal { rule, left, right } => {
                let (lbox, rbox) = split_region(&region, rule);
                self.collect_leaves(*left, lbox, leaves, measures, n);
                self.collect_leaves(*right, rbox, leaves, measures, n);
            }
        }
    }

    /// Renders the tree as an indented text diagram.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_node(0, 0, &mut out);
        out
    }

    fn render_node(&self, i: usize, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        match &self.nodes[i] {
            Node::Leaf { counts, prediction } => {
                out.push_str(&format!("{pad}leaf → class {prediction} {counts:?}\n"));
            }
            Node::Internal { rule, left, right } => {
                let cond = match rule {
                    SplitRule::Threshold { attr, threshold } => {
                        format!("{} < {:.4}", self.schema.attr(*attr).name, threshold)
                    }
                    SplitRule::Categories { attr, mask } => {
                        let codes: Vec<String> = mask.iter().map(|c| c.to_string()).collect();
                        format!("{} ∈ {{{}}}", self.schema.attr(*attr).name, codes.join(","))
                    }
                };
                out.push_str(&format!("{pad}if {cond}:\n"));
                self.render_node(*left, depth + 1, out);
                out.push_str(&format!("{pad}else:\n"));
                self.render_node(*right, depth + 1, out);
            }
        }
    }
}

/// What every node of one fit reads.
struct Fit<'a> {
    labels: &'a [u32],
    n_classes: usize,
    params: &'a TreeParams,
}

/// Builds the subtree over `node` and returns its nodes in DFS preorder
/// (node 0 is the subtree root; child indices are local to the returned
/// vector). Sibling subtrees recurse in parallel while `budget >= 2` and
/// the node is large enough to amortize a fork; the assembly order —
/// root, left subtree, right subtree — is the same either way, so the
/// layout matches a fully sequential build exactly. A forked right
/// subtree gets its own [`SplitBuffers`]; every other node reuses its parent's.
fn build_subtree(
    fit: &Fit<'_>,
    node: NodeLists<'_>,
    buffers: &mut SplitBuffers,
    depth: usize,
    budget: usize,
) -> Vec<Node> {
    let mut counts = vec![0u64; fit.n_classes];
    for &r in node.rows.iter() {
        counts[fit.labels[r as usize] as usize] += 1;
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

    let n = node.rows.len();
    let pure = counts.iter().filter(|&&c| c > 0).count() <= 1;
    if pure || depth >= fit.params.max_depth || n < MIN_SPLIT {
        return make_leaf(counts);
    }
    let par = if budget >= 2 && n >= PAR_SUBTREE_MIN_ROWS {
        Parallelism::Threads(budget)
    } else {
        Parallelism::Sequential
    };
    let Some(cand) = best_split(&node, fit.labels, &counts, fit.params.min_leaf, par) else {
        return make_leaf(counts);
    };
    if gini(&counts) - cand.impurity < fit.params.min_gain {
        return make_leaf(counts);
    }

    let (left, right) = node.split(&cand.rule, buffers);
    let (left_nodes, right_nodes) = if budget >= 2 && n >= PAR_SUBTREE_MIN_ROWS {
        // Fork: each side gets half the remaining budget; join's own
        // inline-nesting guard keeps this from oversubscribing when the
        // whole fit already runs inside a worker (e.g. a bootstrap
        // replicate building trees).
        let (lb, rb) = (budget.div_ceil(2), budget / 2);
        focus_exec::join(
            Parallelism::Threads(budget),
            move || build_subtree(fit, left, buffers, depth + 1, lb),
            move || {
                build_subtree(
                    fit,
                    right,
                    &mut SplitBuffers::new(fit.labels.len()),
                    depth + 1,
                    rb,
                )
            },
        )
    } else {
        (
            build_subtree(fit, left, buffers, depth + 1, budget),
            build_subtree(fit, right, buffers, depth + 1, budget),
        )
    };

    // Assemble in preorder: this node, then the left subtree, then the
    // right — child indices shift by each block's offset.
    let mut nodes = Vec::with_capacity(1 + left_nodes.len() + right_nodes.len());
    nodes.push(Node::Internal {
        rule: cand.rule,
        left: 1,
        right: 1 + left_nodes.len(),
    });
    let mut append = |block: Vec<Node>, offset: usize| {
        nodes.extend(block.into_iter().map(|n| match n {
            Node::Internal { rule, left, right } => Node::Internal {
                rule,
                left: left + offset,
                right: right + offset,
            },
            leaf => leaf,
        }));
    };
    let left_len = left_nodes.len();
    append(left_nodes, 1);
    append(right_nodes, 1 + left_len);
    nodes
}

/// Splits a box region according to a rule, producing the left and right
/// child regions.
fn split_region(region: &BoxRegion, rule: &SplitRule) -> (BoxRegion, BoxRegion) {
    let mut left = region.clone();
    let mut right = region.clone();
    match rule {
        SplitRule::Threshold { attr, threshold } => match &region.constraints[*attr] {
            AttrConstraint::Interval { lo, hi } => {
                left.constraints[*attr] = AttrConstraint::Interval {
                    lo: *lo,
                    hi: threshold.min(*hi),
                };
                right.constraints[*attr] = AttrConstraint::Interval {
                    lo: threshold.max(*lo),
                    hi: *hi,
                };
            }
            AttrConstraint::Cats(_) => {
                panic!("threshold split on a categorical attribute")
            }
        },
        SplitRule::Categories { attr, mask } => match &region.constraints[*attr] {
            AttrConstraint::Cats(current) => {
                left.constraints[*attr] = AttrConstraint::Cats(current.intersect(mask));
                right.constraints[*attr] = AttrConstraint::Cats(current.difference(mask));
            }
            AttrConstraint::Interval { .. } => {
                panic!("categorical split on a numeric attribute")
            }
        },
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::data::Schema;
    use focus_core::model::count_partition;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn boundary_data(n: usize, boundary: f64, seed: u64) -> LabeledTable {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut t = LabeledTable::new(schema, 2);
        for _ in 0..n {
            let x: f64 = rng.gen::<f64>() * 100.0;
            t.push_row(&[Value::Num(x)], u32::from(x < boundary));
        }
        t
    }

    #[test]
    fn learns_simple_boundary() {
        let data = boundary_data(500, 40.0, 1);
        let tree = DecisionTree::fit(&data, TreeParams::default());
        assert_eq!(tree.misclassification_rate(&data), 0.0);
        assert_eq!(tree.predict(&[Value::Num(10.0)]), 1);
        assert_eq!(tree.predict(&[Value::Num(90.0)]), 0);
        // One boundary needs exactly two leaves.
        assert_eq!(tree.n_leaves(), 2);
    }

    #[test]
    fn learns_xor_of_two_attributes() {
        // Class = (x < 50) XOR (y < 50): requires depth ≥ 2.
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::numeric("y"),
        ]));
        let mut data = LabeledTable::new(schema, 2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..800 {
            let x: f64 = rng.gen::<f64>() * 100.0;
            let y: f64 = rng.gen::<f64>() * 100.0;
            let c = u32::from((x < 50.0) != (y < 50.0));
            data.push_row(&[Value::Num(x), Value::Num(y)], c);
        }
        // Greedy CART places its first (noise-driven) splits off the true
        // boundaries, so XOR needs a few extra levels to converge.
        let tree = DecisionTree::fit(&data, TreeParams::default().max_depth(8));
        assert!(
            tree.misclassification_rate(&data) < 0.02,
            "rate = {}",
            tree.misclassification_rate(&data)
        );
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn categorical_attribute_split() {
        let schema = Arc::new(Schema::new(vec![Schema::categorical("color", 3)]));
        let mut data = LabeledTable::new(schema, 2);
        for _ in 0..50 {
            data.push_row(&[Value::Cat(0)], 0);
            data.push_row(&[Value::Cat(1)], 1);
            data.push_row(&[Value::Cat(2)], 0);
        }
        let tree = DecisionTree::fit(&data, TreeParams::default());
        assert_eq!(tree.misclassification_rate(&data), 0.0);
        assert_eq!(tree.predict(&[Value::Cat(1)]), 1);
        assert_eq!(tree.predict(&[Value::Cat(2)]), 0);
    }

    #[test]
    fn max_depth_zero_gives_majority_stump() {
        let data = boundary_data(100, 30.0, 5);
        let tree = DecisionTree::fit(&data, TreeParams::default().max_depth(0));
        assert_eq!(tree.n_leaves(), 1);
        assert_eq!(tree.nodes.len(), 1);
        // Majority class: x < 30 is ~30% → predicts class 0 everywhere.
        assert_eq!(tree.predict(&[Value::Num(10.0)]), 0);
    }

    #[test]
    fn min_leaf_limits_fragmentation() {
        let data = boundary_data(100, 50.0, 7);
        let small = DecisionTree::fit(&data, TreeParams::default().min_leaf(40));
        // With min_leaf 40 of 100 rows, at most 2 leaves are feasible.
        assert!(small.n_leaves() <= 2);
    }

    #[test]
    fn model_leaves_partition_the_space() {
        // The exported DtModel's leaves must tile the attribute space:
        // every probe row lands in exactly one leaf.
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::categorical("c", 4),
        ]));
        let mut data = LabeledTable::new(Arc::clone(&schema), 2);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..400 {
            let x: f64 = rng.gen::<f64>() * 10.0;
            let c: u32 = rng.gen_range(0..4);
            let label = u32::from(x < 5.0 && c != 2);
            data.push_row(&[Value::Num(x), Value::Cat(c)], label);
        }
        let tree = DecisionTree::fit(&data, TreeParams::default().max_depth(6));
        let model = tree.to_model();
        for _ in 0..500 {
            let row = [
                Value::Num(rng.gen::<f64>() * 20.0 - 5.0),
                Value::Cat(rng.gen_range(0..4)),
            ];
            let hits = model.leaves().iter().filter(|l| l.contains(&row)).count();
            assert_eq!(hits, 1, "row {row:?} hit {hits} leaves");
        }
    }

    #[test]
    fn model_measures_match_partition_counts() {
        let data = boundary_data(300, 60.0, 13);
        let tree = DecisionTree::fit(&data, TreeParams::default());
        let model = tree.to_model();
        // Re-derive the measures by scanning the training data over the
        // exported partition; they must agree with the model's own.
        let counts = count_partition(&data, model.index(), 2, Parallelism::Global);
        let n = data.len() as f64;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (model.measures()[i] - c as f64 / n).abs() < 1e-12,
                "measure {i}"
            );
        }
        let total: f64 = model.measures().iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn model_predictions_agree_with_tree() {
        let data = boundary_data(300, 45.0, 17);
        let tree = DecisionTree::fit(&data, TreeParams::default());
        let model = tree.to_model();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..200 {
            let row = [Value::Num(rng.gen::<f64>() * 100.0)];
            assert_eq!(tree.predict(&row), model.predict(&row));
        }
    }

    #[test]
    fn deterministic_fit() {
        let data = boundary_data(200, 33.0, 29);
        let a = DecisionTree::fit(&data, TreeParams::default());
        let b = DecisionTree::fit(&data, TreeParams::default());
        assert_eq!(a, b);
    }

    #[test]
    fn render_mentions_attributes_and_leaves() {
        let data = boundary_data(200, 40.0, 15);
        let tree = DecisionTree::fit(&data, TreeParams::default());
        let text = tree.render();
        assert!(text.contains("if x <"));
        assert!(text.contains("leaf → class"));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn rejects_empty_dataset() {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let data = LabeledTable::new(schema, 2);
        DecisionTree::fit(&data, TreeParams::default());
    }
}
