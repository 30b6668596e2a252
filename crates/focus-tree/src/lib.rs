//! # focus-tree — CART-style decision trees
//!
//! The dt-model substrate for FOCUS: a from-scratch binary decision-tree
//! classifier in the CART family (Breiman et al. 1984), the algorithm the
//! paper builds its dt-models with (via the RainForest framework — the
//! out-of-core scaffolding is unnecessary here because the reproduction
//! datasets fit in memory; the induced model is identical).
//!
//! The fit sorts each numeric attribute once, at the root, into an
//! attribute list of `(value, row, class)` entries — the presorted lists of
//! SLIQ (Mehta, Agrawal, Rissanen, EDBT 1996). Each split stably partitions
//! every list into the two children's, so no node sorts again, and a split
//! search is one linear sweep per numeric attribute (RainForest's AVC-set of
//! the attribute, read in value order) and one count over the code column
//! per categorical attribute. The tree is the one a per-node sort would
//! grow, bit for bit: a threshold is only evaluated at a boundary between
//! distinct values, where the class counts on each side and the two values
//! whose midpoint is the threshold depend only on which rows lie on each
//! side, not on their order.
//!
//! Features:
//! * Gini-impurity binary splits;
//! * numeric attributes (threshold splits) and categorical attributes
//!   (subset splits, using the classical CART ordering trick for two-class
//!   problems, singleton splits otherwise);
//! * pre-pruning controls (depth, leaf size, minimum gain);
//! * export to a [`focus_core::model::DtModel`] — the 2-component model
//!   (leaf-region partition + per-(leaf, class) measures) that plugs into
//!   the FOCUS deviation machinery.
//!
//! ```
//! use focus_core::prelude::*;
//! use focus_tree::{DecisionTree, TreeParams};
//! use std::sync::Arc;
//!
//! let schema = Arc::new(Schema::new(vec![Schema::numeric("age")]));
//! let mut data = LabeledTable::new(Arc::clone(&schema), 2);
//! for i in 0..100 {
//!     let age = i as f64;
//!     data.push_row(&[Value::Num(age)], u32::from(age < 40.0));
//! }
//! let tree = DecisionTree::fit(&data, TreeParams::default());
//! assert_eq!(tree.predict(&[Value::Num(25.0)]), 1);
//! assert_eq!(tree.predict(&[Value::Num(60.0)]), 0);
//! let model = tree.to_model(); // ready for deviate::<DtFamily>(...)
//! assert_eq!(model.leaves().len(), tree.n_leaves());
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod lists;
#[cfg(test)]
mod reference;
pub mod split;
pub mod tree;

pub use split::{gini, SplitRule};
pub use tree::{DecisionTree, TreeParams};
