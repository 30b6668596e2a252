//! # focus-data — synthetic data generators
//!
//! Reimplementations of the two IBM synthetic data generators the FOCUS
//! paper evaluates on (both original binaries are long unavailable; the
//! algorithms are reimplemented from their publications):
//!
//! * [`assoc`] — the **Quest association generator** of Agrawal & Srikant
//!   (VLDB 1994): weighted potential patterns with corruption, Poisson
//!   transaction lengths. Dataset names follow the paper's convention,
//!   e.g. `1M.20L.1K.4000pats.4patlen` (1M transactions, average length
//!   20, 1000 items, 4000 patterns, average pattern length 4).
//! * [`classify`] — the **classification generator** of Agrawal, Imielinski
//!   & Swami (IEEE TKDE 1993): a 9-attribute person schema (salary,
//!   commission, age, education, car, zipcode, house value, years owned,
//!   loan) and the classification functions F1–F10 that label each tuple
//!   Group A or Group B. The paper's experiments use F1–F4.
//!
//! Both generators are fully deterministic given their seeds, and both
//! split the *process* seed from the *sample* seed so that "two datasets
//! from the same generating process" (the null hypothesis of the paper's
//! qualification procedure) is expressible: keep the process seed, vary
//! the sample seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod assoc;
pub mod classify;
pub mod drift;
pub mod io;

pub use assoc::{AssocGen, AssocGenParams};
pub use classify::{classification_schema, ClassifyFn, ClassifyGen};
pub use io::{read_labeled_table, read_transactions, write_labeled_table, write_transactions};
