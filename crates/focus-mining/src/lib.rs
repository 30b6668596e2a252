//! # focus-mining — Apriori frequent-itemset mining
//!
//! The lits-model substrate for FOCUS: a from-scratch implementation of the
//! Apriori algorithm (Agrawal & Srikant, VLDB 1994), which the paper uses to
//! compute the set of frequent itemsets from a transaction dataset.
//!
//! The miner produces a [`focus_core::model::LitsModel`] — the 2-component
//! model (itemsets + supports) that plugs directly into the FOCUS deviation
//! machinery. It has no counting code of its own: every level's supports
//! come from a [`focus_core::source::CountSource`], the same counting
//! engine the measure-extension step uses.
//!
//! [`qualify_pooled`] qualifies a lits deviation (Section 3.4) against
//! permutation replicates counted from one mine of the pooled datasets.
//!
//! ```
//! use focus_core::data::TransactionSet;
//! use focus_mining::{Apriori, AprioriParams};
//!
//! let mut data = TransactionSet::new(3);
//! for _ in 0..8 { data.push(vec![0, 1]); }
//! data.push(vec![0, 2]);
//! data.push(vec![2]);
//!
//! let model = Apriori::new(AprioriParams::with_minsup(0.5)).mine(&data);
//! // {0}, {1}, {0,1} are frequent at 50%; {2} (20%) is not.
//! assert_eq!(model.len(), 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod apriori;
pub mod pooled;

pub use apriori::{Apriori, AprioriParams};
pub use pooled::qualify_pooled;
