//! # focus-core — the FOCUS deviation framework
//!
//! An implementation of *"A Framework for Measuring Changes in Data
//! Characteristics"* (Ganti, Gehrke, Ramakrishnan, Loh — PODS 1999).
//!
//! FOCUS quantifies the difference (**deviation**) between two datasets in
//! terms of the data-mining models they induce. Any model class with the
//! **2-component property** (a structural component of regions + a measure
//! per region) and the **meet-semilattice property** (any two structures
//! have a greatest common refinement, GCR) plugs into the framework; this
//! crate instantiates the paper's three classes:
//!
//! | class          | structure                | GCR                         |
//! |----------------|--------------------------|-----------------------------|
//! | lits-models    | frequent itemsets        | union of itemset families   |
//! | dt-models      | decision-tree leaf cells | overlay of the partitions   |
//! | cluster-models | cluster boxes            | overlay + remainders        |
//!
//! The crate provides:
//!
//! * [`data`] — attribute spaces, tables, transaction sets (Def. 3.1);
//! * [`region`] — box and itemset regions;
//! * [`model`] — 2-component models and the measure (selectivity) scans;
//! * [`vertical`] — Eclat-style vertical tid-bitset counting (the index
//!   arm of the lits counting engine);
//! * [`source`] — the lits counting engine: per-dataset handles that serve
//!   every itemset-support count — mining and measure extension — through
//!   a cached vertical index or a horizontal walk, picked by a
//!   deterministic cost model;
//! * [`family`] — the `ModelFamily` trait: the four ingredients (GCR,
//!   measure extension, focussing, model-only bound) that vary by model
//!   class, implemented for lits, dt and cluster models;
//! * [`gcr`] — greatest common refinements (Defs. 3.4, 4.2);
//! * [`diff`] — difference functions `f_a`, `f_s`, `f_χ²` and aggregates
//!   `sum`, `max` (Def. 3.7);
//! * [`deviation`] — `δ(f,g)` and the focussed `δρ` (Defs. 3.5, 3.6, 5.2);
//! * [`bound`] — the scan-free upper bound `δ*` (Def. 4.1, Thm. 4.2);
//! * [`embed`] — classical MDS embedding of a collection of datasets
//!   from their pairwise distances (Section 4.1.1);
//! * [`ops`] — structural union/intersection/difference, rank and select
//!   operators for exploratory analysis (Section 5);
//! * [`persist`] — the plain-text lits-model format (`mine --out`,
//!   `bound`);
//! * [`monitor`] — misclassification error and chi-squared as FOCUS special
//!   cases (Thm. 5.2, Prop. 5.1);
//! * [`qualify`] — bootstrap significance of deviations (Section 3.4).
//!
//! ## Quick example
//!
//! ```
//! use focus_core::prelude::*;
//! use std::sync::Arc;
//!
//! // Two tiny one-attribute datasets with different class boundaries.
//! let schema = Arc::new(Schema::new(vec![Schema::numeric("age")]));
//! let mut d1 = LabeledTable::new(Arc::clone(&schema), 2);
//! let mut d2 = LabeledTable::new(Arc::clone(&schema), 2);
//! for i in 0..100 {
//!     let age = i as f64;
//!     d1.push_row(&[Value::Num(age)], u32::from(age < 30.0));
//!     d2.push_row(&[Value::Num(age)], u32::from(age < 50.0));
//! }
//!
//! // Models: two-leaf partitions at each dataset's own boundary.
//! let t1 = induce_dt_measures(vec![
//!     BoxBuilder::new(&schema).lt("age", 30.0).build(),
//!     BoxBuilder::new(&schema).ge("age", 30.0).build(),
//! ], &d1);
//! let t2 = induce_dt_measures(vec![
//!     BoxBuilder::new(&schema).lt("age", 50.0).build(),
//!     BoxBuilder::new(&schema).ge("age", 50.0).build(),
//! ], &d2);
//!
//! // δ(f_a, g_sum): extends both to the GCR and aggregates per-region diffs.
//! let (f, g) = (DiffFn::Absolute, AggFn::Sum);
//! let dev = deviate::<DtFamily>(&t1, &d1, &t2, &d2, f, g, Parallelism::Global);
//! assert!((dev.value - 0.4).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bound;
pub mod data;
pub mod deviation;
pub mod diff;
pub mod embed;
pub mod family;
pub mod gcr;
pub mod model;
pub mod monitor;
pub mod ops;
pub mod persist;
pub mod qualify;
pub mod region;
pub mod source;
pub mod vertical;

/// One-stop imports for typical FOCUS workflows.
pub mod prelude {
    pub use crate::bound::{cluster_upper_bound, dt_upper_bound, lits_upper_bound};
    pub use crate::data::{
        AttrType, Attribute, LabeledTable, Schema, Table, TransactionSet, Value,
    };
    pub use crate::deviation::{
        deviate, deviate_focussed, deviate_over_sources, deviation_fixed, FamilyDeviation,
    };
    pub use crate::diff::{AggFn, DiffFn};
    pub use crate::embed::DistanceMatrix;
    pub use crate::family::{ClusterFamily, DtFamily, DtGcr, LitsFamily, ModelFamily, Side};
    pub use crate::gcr::{gcr_boxes, gcr_lits, gcr_partition, OverlayCell};
    pub use crate::model::{
        count_boxes, count_itemsets, count_partition, induce_dt_measures, induce_lits_measures,
        ClusterModel, DtModel, LitsModel,
    };
    pub use crate::monitor::{
        chi_squared_statistic, me_via_deviation, misclassification_error, predicted_dataset,
    };
    pub use crate::ops::{
        lits_difference, lits_intersection, lits_union, partition_difference,
        partition_intersection, partition_union, rank, select_bottom_n, select_min, select_top,
        select_top_n, Ranked,
    };
    pub use crate::persist::{read_lits_model, write_lits_model};
    pub use crate::qualify::{qualify, qualify_chi_squared, qualify_transactions};
    pub use crate::region::{AttrConstraint, BoxBuilder, BoxIndex, BoxRegion, CatMask, Itemset};
    pub use crate::source::{prefers_vertical, CountSource, MAX_INDEX_BYTES};
    pub use crate::vertical::{count_itemsets_grouped, VerticalIndex};
    pub use focus_exec::Parallelism;
}
