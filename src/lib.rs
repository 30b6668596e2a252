//! # FOCUS — A Framework for Measuring Changes in Data Characteristics
//!
//! Facade crate re-exporting the whole workspace. See the README for a tour.
//!
//! * [`core`] — the FOCUS framework itself (models, GCR, deviation).
//! * [`exec`] — deterministic fork-join executor behind the parallel
//!   dataset scans and bootstrap fan-out (`Parallelism`, `FOCUS_THREADS`).
//! * [`stats`] — bootstrap, Wilcoxon rank-sum test, samplers.
//! * [`data`] — synthetic data generators (IBM Quest association +
//!   Agrawal classification).
//! * [`mining`] — Apriori frequent-itemset mining (lits-models).
//! * [`registry`] — snapshot collections on disk and the δ*-screened
//!   pairwise deviation matrix (Section 4.1.1's exploratory loop).
//! * [`tree`] — CART decision trees (dt-models).
//! * [`cluster`] — k-means clustering (cluster-models).
//!
//! ## End-to-end in ten lines
//!
//! ```
//! use focus::core::prelude::*;
//! use focus::data::assoc::{AssocGen, AssocGenParams};
//! use focus::mining::{Apriori, AprioriParams};
//!
//! let process = AssocGen::new(AssocGenParams::small(), 1);
//! let (d1, d2) = (process.generate(800, 1), process.generate(800, 2)); // same process
//! let miner = Apriori::new(AprioriParams::with_minsup(0.05));
//! let (f, g, par) = (DiffFn::Absolute, AggFn::Sum, Parallelism::Global);
//! let delta = |a: &TransactionSet, b: &TransactionSet| {
//!     deviate::<LitsFamily>(&miner.mine(a), a, &miner.mine(b), b, f, g, par).value
//! };
//! let q = qualify(&d1, &d2, delta(&d1, &d2), 19, 7, par, delta);
//! // Same process ⇒ the deviation is not in the extreme tail of the null.
//! assert!(!q.is_significant(0.01), "sig = {}", q.significance_percent);
//! ```

pub use focus_cluster as cluster;
pub use focus_core as core;
pub use focus_data as data;
pub use focus_exec as exec;
pub use focus_mining as mining;
pub use focus_registry as registry;
pub use focus_stats as stats;
pub use focus_tree as tree;
