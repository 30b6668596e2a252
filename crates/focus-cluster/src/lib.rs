//! # focus-cluster — k-means clustering
//!
//! The cluster-model substrate for FOCUS. The paper treats cluster-models
//! as sets of non-overlapping, possibly non-exhaustive regions with
//! per-region measures (Section 2.4) and notes they behave as a special
//! case of dt-models under the FOCUS machinery.
//!
//! This crate provides Lloyd's k-means with k-means++ seeding over the
//! numeric attributes of a table, and exports each cluster as an
//! axis-aligned bounding-box region (a [`focus_core::region::BoxRegion`])
//! together with its selectivity — a
//! [`focus_core::model::ClusterModel`] ready for
//! [`deviate::<ClusterFamily>`](focus_core::deviation::deviate).
//!
//! ```
//! use focus_core::data::{Schema, Table, Value};
//! use focus_cluster::{KMeans, KMeansParams};
//! use focus_exec::Parallelism;
//! use std::sync::Arc;
//!
//! let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
//! let mut data = Table::new(Arc::clone(&schema));
//! for i in 0..50 { data.push_row(&[Value::Num(i as f64 * 0.01)]); }
//! for i in 0..50 { data.push_row(&[Value::Num(100.0 + i as f64 * 0.01)]); }
//!
//! let result = KMeans::new(KMeansParams::new(2).seed(7)).fit(&data, Parallelism::Global);
//! assert_eq!(result.centroids.len(), 2);
//! let model = result.to_model(&data);
//! assert_eq!(model.clusters().len(), 2);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod birch;
pub mod kmeans;

pub use birch::{Birch, BirchParams, BirchResult, ClusteringFeature};
pub use kmeans::{KMeans, KMeansParams, KMeansResult};
